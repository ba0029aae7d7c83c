package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// loadClient is one closed-loop client: it sends its stream's next
// request only after the previous response has been read and checked.
type loadClient struct {
	hc     *http.Client
	urls   []*url.URL // per page
	stream *stream
	oracle *oracle
	buf    []byte

	attempted int64
	failed    int64
	firstErr  error
}

func pageURLs(base string) []*url.URL {
	urls := make([]*url.URL, siteConfig.Pages)
	for i := range urls {
		u, err := url.Parse(fmt.Sprintf("%s/page/synth?page=%d", base, i))
		if err != nil {
			panic(err) // base is a listener address the harness chose
		}
		urls[i] = u
	}
	return urls
}

// newLoadClient returns a client of the proxy at base. It keeps its
// connection alive and asks for no compression, so byte counts are those
// of the bodies. dial, when non-nil, opens its connections (the link
// meter).
func newLoadClient(base string, s *stream, o *oracle, dial func(ctx context.Context, network, addr string) (net.Conn, error)) *loadClient {
	return &loadClient{
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true, DialContext: dial},
			Timeout:   10 * time.Second,
		},
		urls:   pageURLs(base),
		stream: s,
		oracle: o,
		// One byte more than a page, so an over-long body is seen.
		buf: make([]byte, siteConfig.FragmentsPerPage*siteConfig.FragmentBytes+1),
	}
}

// do sends one request, reads and checks the response, and returns the
// client-observed latency. A failed request still has a latency: the
// time until the failure was known.
func (c *loadClient) do(rq request) time.Duration {
	u := c.urls[rq.page]
	req := &http.Request{
		Method: http.MethodGet, URL: u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, 1),
	}
	if rq.user != "" {
		req.Header["X-User"] = []string{rq.user}
	}
	sent := time.Now()
	err := c.exchange(req, rq.page, sent)
	lat := time.Since(sent)
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	return lat
}

func (c *loadClient) exchange(req *http.Request, page int, sent time.Time) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	n, err := io.ReadFull(resp.Body, c.buf)
	resp.Body.Close()
	if err != io.ErrUnexpectedEOF && err != io.EOF {
		if err == nil {
			err = fmt.Errorf("page %d: body longer than %d bytes", page, len(c.buf)-1)
		}
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("page %d: status %d", page, resp.StatusCode)
	}
	return c.oracle.check(page, c.buf[:n], sent)
}

// run sends the stream's next n requests.
func (c *loadClient) run(n int) {
	for i := 0; i < n; i++ {
		c.do(c.stream.next())
	}
}

// sequentialPass fetches every page once, anonymously, in page order:
// the cold fill that seeds every cache tier.
func (c *loadClient) sequentialPass() {
	for p := 0; p < siteConfig.Pages; p++ {
		c.do(request{page: p})
	}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// windowSamples is what one client measured in a window: latencies
// grouped by the sub-window in which each request was sent.
type windowSamples [][]time.Duration

// measure runs the client until the window ends. A request belongs to
// the sub-window it was sent in, and one sent before the deadline is
// completed and counted, so counts over the nominal duration are not
// biased against slow requests.
func (c *loadClient) measure(start time.Time, window time.Duration, subs int) windowSamples {
	ws := make(windowSamples, subs)
	subLen := window / time.Duration(subs)
	for {
		off := time.Since(start)
		if off >= window {
			return ws
		}
		k := int(off / subLen)
		if k >= subs {
			k = subs - 1
		}
		ws[k] = append(ws[k], c.do(c.stream.next()))
	}
}

// runClients runs fn on every client concurrently and waits for all.
func runClients(cs []*loadClient, fn func(i int, c *loadClient)) {
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	_, q2, _ := quartiles(vs)
	return q2
}
