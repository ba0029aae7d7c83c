package experiments

import (
	"net/http"

	"dpcache/internal/origin"
)

// paperProtocol is the origin link of every paper artifact: the protocol
// the paper measured, in which the origin sends the template on every
// request. It withholds the proxy's offer of a plan it already holds
// (origin.HeaderHave), so the origin answers in full, as the analytical
// model's B_C assumes; the synthetic site's layout never changes, and with
// the offer its templates would cross the link once each.
type paperProtocol struct{ link http.RoundTripper }

// newPaperProtocol returns a paper-protocol link over a transport set up as
// dpc.New sets up its own.
func newPaperProtocol() http.RoundTripper {
	return paperProtocol{&http.Transport{MaxIdleConnsPerHost: 64}}
}

func (p paperProtocol) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Header.Get(origin.HeaderHave) != "" {
		r = r.Clone(r.Context()) // a RoundTripper leaves the caller's request alone
		r.Header.Del(origin.HeaderHave)
	}
	return p.link.RoundTrip(r)
}
