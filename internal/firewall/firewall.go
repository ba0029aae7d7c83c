// Package firewall models the site firewall of the paper's scan-cost
// analysis (Section 5, Result 1).
//
// Every byte leaving the site is scanned by the firewall at cost y per
// byte; when the DPC is deployed, the proxy additionally scans every
// template byte for tags at cost z per byte, with z ≈ y because both are
// linear-time string matchers (the paper cites KMP). The firewall here is
// a real scanner — a KMP signature set run over all traffic — so the
// experiments charge measured scan work, not a modeled constant.
package firewall

import (
	"net"
	"sync/atomic"

	"dpcache/internal/kmp"
)

// Firewall scans traffic for a signature set and accounts scan cost.
type Firewall struct {
	sigs    []*kmp.Matcher
	scanned atomic.Int64
	matches atomic.Int64
}

// DefaultSignatures is a tiny packet-filter ruleset: enough to make the
// scanner do realistic per-byte work.
func DefaultSignatures() []string {
	return []string{
		"/etc/passwd",
		"<script>alert",
		"cmd.exe",
		"DROP TABLE",
		"\x90\x90\x90\x90", // NOP sled
	}
}

// New compiles a firewall from signature strings; nil uses the defaults.
func New(signatures []string) *Firewall {
	if signatures == nil {
		signatures = DefaultSignatures()
	}
	f := &Firewall{}
	for _, s := range signatures {
		if s == "" {
			continue
		}
		f.sigs = append(f.sigs, kmp.Compile([]byte(s)))
	}
	return f
}

// Scan runs the signature set over p, returning the number of signature
// hits, and accounts len(p) scanned bytes (the per-byte cost model charges
// the byte count once: the signature automata run in parallel in a real
// filter).
func (f *Firewall) Scan(p []byte) int {
	n := 0
	for _, m := range f.sigs {
		n += m.Count(p)
	}
	f.scanned.Add(int64(len(p)))
	f.matches.Add(int64(n))
	return n
}

// ScannedBytes reports total bytes scanned.
func (f *Firewall) ScannedBytes() int64 { return f.scanned.Load() }

// Matches reports total signature hits.
func (f *Firewall) Matches() int64 { return f.matches.Load() }

// Reset zeroes the accounting.
func (f *Firewall) Reset() {
	f.scanned.Store(0)
	f.matches.Store(0)
}

// Cost returns the scan cost at y per byte: scannedBytes·y.
func (f *Firewall) Cost(y float64) float64 { return float64(f.ScannedBytes()) * y }

// TotalScanCost combines firewall and DPC scanning per the paper's
// comparison: the firewall scans wire bytes at y; the DPC scans template
// bytes at z ≈ y. Pass dpcScannedBytes = 0 for the no-cache configuration.
func TotalScanCost(firewallBytes, dpcScannedBytes int64, y float64) float64 {
	return float64(firewallBytes)*y + float64(dpcScannedBytes)*y
}

// Listener wraps l so all bytes read from and written to accepted
// connections pass through the firewall scanner — the packet filter
// sitting on the origin↔external link.
func (f *Firewall) Listener(l net.Listener) net.Listener {
	return &fwListener{Listener: l, f: f}
}

type fwListener struct {
	net.Listener
	f *Firewall
}

func (l *fwListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &fwConn{Conn: c, f: l.f}, nil
}

type fwConn struct {
	net.Conn
	f *Firewall
}

func (c *fwConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.f.Scan(p[:n])
	}
	return n, err
}

// Write scans p before passing it on, as a firewall does: a peer never holds
// bytes the scan accounting has not seen.
func (c *fwConn) Write(p []byte) (int, error) {
	c.f.Scan(p)
	return c.Conn.Write(p)
}
