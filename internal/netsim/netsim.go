// Package netsim measures the bytes a link actually carries — the stand-in
// for the Sniffer network monitor the paper uses in Section 6.
//
// A Meter-wrapped listener counts application bytes flowing in each
// direction. On top of the raw counts, an OverheadModel estimates what a
// wire capture would add: TCP/IP headers per data packet, pure ACKs, and
// connection handshake/teardown packets. The paper's experimental curves
// differ from its analytical ones exactly because the Sniffer sees this
// overhead while the model of Section 5 does not; reproducing the gap
// (Figures 3(b), 5, 6) requires reproducing the overhead.
package netsim

import (
	"net"
	"sync/atomic"
)

// Meter accumulates traffic statistics for one measured link. All fields
// are updated atomically; read them with the accessor methods.
type Meter struct {
	bytesIn    atomic.Int64 // application bytes read from peers
	bytesOut   atomic.Int64 // application bytes written to peers
	packetsIn  atomic.Int64 // modeled data packets carrying bytesIn
	packetsOut atomic.Int64 // modeled data packets carrying bytesOut
	conns      atomic.Int64 // accepted connections

	mss int64
}

// NewMeter returns a meter using the given maximum segment size for packet
// accounting (0 selects the Ethernet-typical 1460).
func NewMeter(mss int) *Meter {
	if mss <= 0 {
		mss = 1460
	}
	return &Meter{mss: int64(mss)}
}

// BytesIn returns application bytes received.
func (m *Meter) BytesIn() int64 { return m.bytesIn.Load() }

// BytesOut returns application bytes sent.
func (m *Meter) BytesOut() int64 { return m.bytesOut.Load() }

// Bytes returns total application bytes in both directions.
func (m *Meter) Bytes() int64 { return m.BytesIn() + m.BytesOut() }

// PacketsIn returns modeled inbound data packets.
func (m *Meter) PacketsIn() int64 { return m.packetsIn.Load() }

// PacketsOut returns modeled outbound data packets.
func (m *Meter) PacketsOut() int64 { return m.packetsOut.Load() }

// Conns returns the number of connections accepted.
func (m *Meter) Conns() int64 { return m.conns.Load() }

// Reset zeroes all counters (between experiment phases).
func (m *Meter) Reset() {
	m.bytesIn.Store(0)
	m.bytesOut.Store(0)
	m.packetsIn.Store(0)
	m.packetsOut.Store(0)
	m.conns.Store(0)
}

func (m *Meter) segments(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + m.mss - 1) / m.mss
}

func (m *Meter) onRead(n int) {
	m.bytesIn.Add(int64(n))
	m.packetsIn.Add(m.segments(int64(n)))
}

func (m *Meter) onWrite(n int) {
	m.bytesOut.Add(int64(n))
	m.packetsOut.Add(m.segments(int64(n)))
}

// Listener wraps l so every accepted connection feeds the meter.
func Listener(l net.Listener, m *Meter) net.Listener {
	return &meteredListener{Listener: l, m: m}
}

type meteredListener struct {
	net.Listener
	m *Meter
}

func (l *meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.m.conns.Add(1)
	return &meteredConn{Conn: c, m: l.m}, nil
}

type meteredConn struct {
	net.Conn
	m *Meter
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.m.onRead(n)
	}
	return n, err
}

// Write counts p before handing it to the connection, so the meter never
// trails what the peer already holds (a reader that has the whole response
// sees it counted); a short write gives the unwritten part back.
func (c *meteredConn) Write(p []byte) (int, error) {
	c.m.onWrite(len(p))
	n, err := c.Conn.Write(p)
	if n < len(p) {
		c.m.bytesOut.Add(int64(n - len(p)))
		c.m.packetsOut.Add(c.m.segments(int64(n)) - c.m.segments(int64(len(p))))
	}
	return n, err
}

// OverheadModel converts a Meter's application-level counts into an
// estimate of wire bytes, the quantity a packet capture reports.
type OverheadModel struct {
	// HeaderBytes is the TCP+IP header cost charged per packet (40 for
	// IPv4 without options).
	HeaderBytes int64
	// AckEvery models one pure-ACK packet per this many data packets.
	// Zero disables ACK accounting.
	AckEvery int64
	// ConnSetupPackets is the handshake+teardown packet count charged
	// per connection (3-way handshake plus 4-segment close = 7).
	ConnSetupPackets int64
}

// DefaultOverhead is the model used by the experiments: 40-byte headers,
// an ACK per two data segments, seven setup/teardown packets.
func DefaultOverhead() OverheadModel {
	return OverheadModel{HeaderBytes: 40, AckEvery: 2, ConnSetupPackets: 7}
}

// WireBytes estimates total on-the-wire bytes for the meter's traffic.
func (o OverheadModel) WireBytes(m *Meter) int64 {
	data := m.Bytes()
	packets := m.PacketsIn() + m.PacketsOut()
	acks := int64(0)
	if o.AckEvery > 0 {
		acks = packets / o.AckEvery
	}
	packets += acks + o.ConnSetupPackets*m.Conns()
	return data + o.HeaderBytes*packets
}

// WireBytesOut estimates wire bytes in the origin→proxy direction only:
// the paper's "outbound bytes served" B, as a Sniffer would report it.
// Inbound ACKs acknowledging outbound data and the connection setup share
// are charged here because the paper's bandwidth numbers are per-link, not
// per-direction-of-header.
func (o OverheadModel) WireBytesOut(m *Meter) int64 {
	data := m.BytesOut()
	packets := m.PacketsOut()
	acks := int64(0)
	if o.AckEvery > 0 {
		acks = packets / o.AckEvery
	}
	packets += acks + o.ConnSetupPackets*m.Conns()
	return data + o.HeaderBytes*packets
}

// ListenLoopback opens a TCP listener on an ephemeral loopback port and
// wraps it with the meter. It is the standard way experiments stand up the
// measured origin↔DPC link.
func ListenLoopback(m *Meter) (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return Listener(l, m), nil
}
