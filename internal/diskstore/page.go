package diskstore

import (
	"encoding/binary"
	"hash/crc32"
)

// On-disk layout. The heap file is an array of fixed-size slotted pages:
//
//	page header (24 B): magic u32 | checksum u32 | slotCount u32 | dataLo u32 | reserved 8 B
//	slot directory    : slotCount × {off u32, len u32}, growing up from the header
//	record data       : grows down from the end of the page toward the directory
//
// The checksum (CRC-32C over the whole page with the checksum field zeroed)
// is computed when a dirty page is written back, so a page is either wholly
// committed or — after a torn write or crash — wholly discarded at replay.
// Slots are never reused within a page incarnation: a deleted record's slot
// is zeroed and the space is reclaimed only when the entire page dies and
// returns through the free list.
//
// A record is stored as one or more segments, each carrying the full record
// header plus a contiguous chunk of the value; a record is valid only when
// segments 0..n are all present with the final one flagged last and the
// segment lengths summing to the declared total (append-then-commit: a
// partially written record can never be mistaken for a complete one).
//
//	record header (40 B):
//	  seq u64 | gen u64 | reserved 8 B
//	  keyLen u16 | metaLen u16 | segIdx u16 | flags u16
//	  segVal u32 | totalVal u32
//	followed by key, metaLen bytes of meta, and segVal value bytes.
//
// The reserved word and the meta are written empty and skipped when read:
// files written while records carried an expiry deadline and a meta string
// there replay unchanged, those records read as never expiring.
const (
	pageMagic     = 0x44504348 // "DPCH"
	pageHeaderLen = 24
	slotLen       = 8
	recHeaderLen  = 40

	recFlagLast = 1 << 0

	// DefaultPageBytes is the heap-file page size when Config.PageBytes
	// is zero. 32 KiB fits several typical fragments per page while
	// keeping torn-write blast radius small.
	DefaultPageBytes = 32 << 10
	// MinPageBytes and MaxPageBytes bound Config.PageBytes.
	MinPageBytes = 4 << 10
	MaxPageBytes = 1 << 20

	// DefaultPoolPages is the buffer-pool frame count when
	// Config.PoolPages is zero (64 × 32 KiB = 2 MiB resident).
	DefaultPoolPages = 64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func initPage(buf []byte) {
	clear(buf)
	binary.LittleEndian.PutUint32(buf[0:], pageMagic)
	binary.LittleEndian.PutUint32(buf[8:], 0)                 // slotCount
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(buf))) // dataLo
}

func pageSlotCount(buf []byte) int {
	return int(binary.LittleEndian.Uint32(buf[8:]))
}

func setPageSlotCount(buf []byte, n int) {
	binary.LittleEndian.PutUint32(buf[8:], uint32(n))
}

func pageDataLo(buf []byte) int {
	return int(binary.LittleEndian.Uint32(buf[12:]))
}

func setPageDataLo(buf []byte, off int) {
	binary.LittleEndian.PutUint32(buf[12:], uint32(off))
}

func pageSlot(buf []byte, i int) (off, length int) {
	base := pageHeaderLen + slotLen*i
	return int(binary.LittleEndian.Uint32(buf[base:])),
		int(binary.LittleEndian.Uint32(buf[base+4:]))
}

func setPageSlot(buf []byte, i, off, length int) {
	base := pageHeaderLen + slotLen*i
	binary.LittleEndian.PutUint32(buf[base:], uint32(off))
	binary.LittleEndian.PutUint32(buf[base+4:], uint32(length))
}

// sealPage stamps the page checksum; called on a private snapshot
// immediately before it is written back.
func sealPage(buf []byte) {
	binary.LittleEndian.PutUint32(buf[4:], 0)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf, crcTable))
}

// verifyPage checks magic and checksum. It briefly zeroes the checksum
// field in place, so the caller must own buf exclusively.
func verifyPage(buf []byte) bool {
	if len(buf) < pageHeaderLen || binary.LittleEndian.Uint32(buf[0:]) != pageMagic {
		return false
	}
	want := binary.LittleEndian.Uint32(buf[4:])
	binary.LittleEndian.PutUint32(buf[4:], 0)
	got := crc32.Checksum(buf, crcTable)
	binary.LittleEndian.PutUint32(buf[4:], want)
	return got == want
}

type recHeader struct {
	seq      uint64
	gen      uint64
	keyLen   int
	metaLen  int
	segIdx   int
	flags    int
	segVal   int
	totalVal int
}

func putRecHeader(buf []byte, h recHeader) {
	binary.LittleEndian.PutUint64(buf[0:], h.seq)
	binary.LittleEndian.PutUint64(buf[8:], h.gen)
	binary.LittleEndian.PutUint64(buf[16:], 0)
	binary.LittleEndian.PutUint16(buf[24:], uint16(h.keyLen))
	binary.LittleEndian.PutUint16(buf[26:], uint16(h.metaLen))
	binary.LittleEndian.PutUint16(buf[28:], uint16(h.segIdx))
	binary.LittleEndian.PutUint16(buf[30:], uint16(h.flags))
	binary.LittleEndian.PutUint32(buf[32:], uint32(h.segVal))
	binary.LittleEndian.PutUint32(buf[36:], uint32(h.totalVal))
}

func parseRecHeader(buf []byte) recHeader {
	return recHeader{
		seq:      binary.LittleEndian.Uint64(buf[0:]),
		gen:      binary.LittleEndian.Uint64(buf[8:]),
		keyLen:   int(binary.LittleEndian.Uint16(buf[24:])),
		metaLen:  int(binary.LittleEndian.Uint16(buf[26:])),
		segIdx:   int(binary.LittleEndian.Uint16(buf[28:])),
		flags:    int(binary.LittleEndian.Uint16(buf[30:])),
		segVal:   int(binary.LittleEndian.Uint32(buf[32:])),
		totalVal: int(binary.LittleEndian.Uint32(buf[36:])),
	}
}

// segment is one decoded record segment, used by recovery.
type segment struct {
	hdr recHeader
	key string
	val []byte // aliases the page buffer it was parsed from
}

// parseSegment decodes the record at [off, off+length) within a page
// buffer, returning false if any bound is inconsistent.
func parseSegment(buf []byte, off, length int) (segment, bool) {
	if off < pageHeaderLen || length < recHeaderLen || off+length > len(buf) {
		return segment{}, false
	}
	h := parseRecHeader(buf[off:])
	if recHeaderLen+h.keyLen+h.metaLen+h.segVal != length {
		return segment{}, false
	}
	p := off + recHeaderLen
	key := string(buf[p : p+h.keyLen])
	p += h.keyLen + h.metaLen
	return segment{hdr: h, key: key, val: buf[p : p+h.segVal]}, true
}
