package coherency

import "time"

// SetBound shortens a hub's drop bound, and with it the hold of its polls
// and the trust its answers give, so that tests of the bound run in
// milliseconds.
func SetBound(h *Hub, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bound = d
}
