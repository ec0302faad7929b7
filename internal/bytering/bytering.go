// Package bytering is the byte ring behind both send-side buffers of the
// stack: a tcpnet connection's send buffer and a TCPLS stream's replay
// buffer. Both hold a window of a byte stream — everything written and not
// yet acknowledged — where acknowledged bytes leave at the head and written
// bytes enter at the tail without anything in between moving, so each
// payload byte is copied in once and read out once per transmission.
package bytering

// minCap is the smallest array a ring allocates. Growth is geometric from
// here to the caller's limit, so an idle or short-lived owner never pays
// for the limit and a bulk sender reaches it in a handful of copies.
const minCap = 4 << 10

// Ring holds the stream bytes [base, base+Len()) for whatever base its
// owner tracks. The array only ever grows, and only while the ring holds
// more than it ever has. The zero value is an empty ring; a Ring is not
// safe for concurrent use.
type Ring struct {
	buf  []byte
	head int // index in buf of the first byte held
	n    int // bytes held

	// wrap backs the View of a span that straddles the end of buf.
	wrap []byte
}

// Len returns the number of bytes held.
func (r *Ring) Len() int { return r.n }

// Write appends as much of b as keeps the ring within limit bytes and
// returns how much it took.
func (r *Ring) Write(b []byte, limit int) int {
	n := min(len(b), limit-r.n)
	if n <= 0 {
		return 0
	}
	if r.n+n > len(r.buf) {
		r.grow(r.n+n, limit)
	}
	tail := r.head + r.n
	if tail >= len(r.buf) {
		tail -= len(r.buf)
	}
	k := copy(r.buf[tail:], b[:n])
	copy(r.buf, b[k:n])
	r.n += n
	return n
}

// grow moves the contents, unwrapped, into an array of at least need
// bytes: double the current one (or more, to fit), capped at limit. The
// old array is left as it was, so spans cut from it stay readable.
func (r *Ring) grow(need, limit int) {
	c := max(2*len(r.buf), minCap)
	for c < need {
		c *= 2
	}
	nb := make([]byte, min(c, limit))
	a, b := r.Spans(0, r.n)
	copy(nb[copy(nb, a):], b)
	r.buf, r.head = nb, 0
}

// Discard drops the first n bytes: they have been acknowledged.
func (r *Ring) Discard(n int) {
	r.n -= n
	if r.n == 0 {
		r.head = 0
		return
	}
	if r.head += n; r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
}

// Spans returns bytes [off, off+n) of the ring as the one or two slices of
// the array that hold them; b is empty unless the span straddles the end
// of the array. Both alias the ring: they are valid until those bytes are
// discarded and the space is written again.
func (r *Ring) Spans(off, n int) (a, b []byte) {
	if n == 0 {
		return nil, nil
	}
	i := r.head + off
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	if i+n <= len(r.buf) {
		return r.buf[i : i+n : i+n], nil
	}
	return r.buf[i:], r.buf[: i+n-len(r.buf) : i+n-len(r.buf)]
}

// View returns bytes [off, off+n) as one slice. It aliases the ring, except
// that a span straddling the end of the array is assembled in scratch that
// the next View reuses: the caller finishes with one view before asking
// for another.
func (r *Ring) View(off, n int) []byte {
	a, b := r.Spans(off, n)
	if len(b) == 0 {
		return a
	}
	if cap(r.wrap) < n {
		r.wrap = make([]byte, n)
	}
	w := r.wrap[:n]
	copy(w[copy(w, a):], b)
	return w
}
