package origin

import (
	"crypto/sha256"
	"encoding/hex"
	"hash/maphash"
	"sync/atomic"
	"time"

	"dpcache/internal/bem"
)

// The validator answers an offered template by reference without generating
// it. A template is a function of the request — path, query, X-User — and
// of the BEM's answer for each entry it names: the page's shell, whose
// dependencies are the rows its layout and untagged blocks read (the
// contract package script states), and each tagged block's. So when a
// GET-only template generated for an offer is filed with a bem.Handle per
// GET it emitted, the shell's first, a later offer for the same request is
// answered X-DPC-Same when the offer names that template and
// bem.Monitor.Recheck finds every entry still valid at its generation: one
// pass over the handles in place of a script run and a SHA-256.
//
// Like the proxy's hint table it is a fixed array that forgets by being
// written over, but it is exact where the hint table is lossy: a record
// holds its request's path, user and query and answers for no other. It
// keeps no template bytes, and anything it cannot vouch for — no record,
// another request's, an invalidated, regenerated or expired entry, a
// forced-miss monitor — is generated as before. A record whose run
// never read the user still answers only its own visitor's offers; it keeps
// that fact so that the lease it grants is scoped to the page.

// validatorSlots is the size of the direct-mapped record array: 64 KiB of
// pointers when empty, and a few hundred bytes more per request key filed.
const validatorSlots = 1 << 13

// validation is one filed template. It is never changed once stored, so a
// check reads it without a lock.
type validation struct {
	path, user, query string
	digest            [2 * sha256.Size]byte // hex, as an offer is written
	// page records that the run never read the user (ReadIdentity): the
	// template is every visitor's, and a lease on it is the page's.
	page bool
	// gets holds a handle per GET the template emitted, the shell's first.
	gets []bem.Handle
}

type validator struct {
	seed  maphash.Seed
	slots [validatorSlots]atomic.Pointer[validation]
}

func newValidator() *validator { return &validator{seed: maphash.MakeSeed()} }

func (v *validator) slot(path, user, query string) *atomic.Pointer[validation] {
	var h maphash.Hash
	h.SetSeed(v.seed)
	h.WriteString(path)
	h.WriteByte(0)
	h.WriteString(user)
	h.WriteByte(0)
	h.WriteString(query)
	return &v.slots[h.Sum64()%validatorSlots]
}

// answers reports whether the offer have for this request may be answered
// by reference without generating the template: its record names the
// template offered, and the BEM would hit every GET, the shell's included,
// at the generation it names — in which case Recheck has counted those
// hits, expiry is the earliest TTL expiry among them, and page reports that
// the run the record was filed from never read the user.
func (v *validator) answers(path, user, query, have string, mon *bem.Monitor) (expiry time.Time, page, ok bool) {
	rec := v.slot(path, user, query).Load()
	if rec == nil || rec.path != path || rec.user != user || rec.query != query || string(rec.digest[:]) != have {
		return expiry, false, false
	}
	expiry, ok = mon.Recheck(rec.gets)
	return expiry, rec.page, ok
}

// file records a GET-only template generated for this request. It takes
// ownership of gets.
func (v *validator) file(path, user, query string, digest [2 * sha256.Size]byte, page bool, gets []bem.Handle) {
	v.slot(path, user, query).Store(&validation{
		path: path, user: user, query: query, digest: digest, page: page, gets: gets,
	})
}

// templateDigest is the hex SHA-256 of template, as a DPC writes it in an
// offer. Nothing here allocates.
func templateDigest(template []byte) [2 * sha256.Size]byte {
	sum := sha256.Sum256(template)
	var enc [2 * sha256.Size]byte
	hex.Encode(enc[:], sum[:])
	return enc
}
