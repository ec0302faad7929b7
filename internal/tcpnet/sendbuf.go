package tcpnet

import "time"

// minSendBufCap is the smallest array a send buffer allocates. Growth is
// geometric from here to the configured SendBuf bound, so an idle or
// short-lived connection never pays for the bound and a bulk sender
// reaches it in a handful of copies.
const minSendBufCap = 4 << 10

// sendBuf is a connection's send buffer: a byte ring holding the stream
// bytes [sndUna, sndUna+Len()). Acknowledged bytes leave at the head and
// written bytes enter at the tail without anything in between moving, so
// each payload byte is copied in once and read out once per
// transmission. The array only ever grows, and only while the buffer
// holds more than it ever has.
type sendBuf struct {
	buf  []byte
	head int // index in buf of the byte at sndUna
	n    int // bytes held

	// wrap backs the view of a span that straddles the end of buf — at
	// most one segment per lap of the ring.
	wrap []byte
}

// Len returns the number of bytes held.
func (s *sendBuf) Len() int { return s.n }

// write appends as much of b as keeps the buffer within limit bytes and
// returns how much it took.
func (s *sendBuf) write(b []byte, limit int) int {
	n := min(len(b), limit-s.n)
	if n <= 0 {
		return 0
	}
	if s.n+n > len(s.buf) {
		s.grow(s.n+n, limit)
	}
	tail := s.head + s.n
	if tail >= len(s.buf) {
		tail -= len(s.buf)
	}
	k := copy(s.buf[tail:], b[:n])
	copy(s.buf, b[k:n])
	s.n += n
	return n
}

// grow moves the contents, unwrapped, into an array of at least need
// bytes: double the current one (or more, to fit), capped at limit.
func (s *sendBuf) grow(need, limit int) {
	c := max(2*len(s.buf), minSendBufCap)
	for c < need {
		c *= 2
	}
	nb := make([]byte, min(c, limit))
	k := copy(nb, s.buf[s.head:min(s.head+s.n, len(s.buf))])
	copy(nb[k:s.n], s.buf)
	s.buf, s.head = nb, 0
}

// discard drops the first n bytes: they have been acknowledged.
func (s *sendBuf) discard(n int) {
	s.n -= n
	if s.n == 0 {
		s.head = 0
		return
	}
	if s.head += n; s.head >= len(s.buf) {
		s.head -= len(s.buf)
	}
}

// view returns bytes [off, off+n) of the buffer as one slice, for a
// segment payload. It aliases the ring, except that a span straddling the
// end of the array is assembled in scratch that the next view reuses:
// the caller marshals the segment before asking for another.
func (s *sendBuf) view(off, n int) []byte {
	i := s.head + off
	if i >= len(s.buf) {
		i -= len(s.buf)
	}
	if i+n <= len(s.buf) {
		return s.buf[i : i+n : i+n]
	}
	if cap(s.wrap) < n {
		s.wrap = make([]byte, n)
	}
	w := s.wrap[:n]
	k := copy(w, s.buf[i:])
	copy(w[k:], s.buf)
	return w
}

// maxTxLog bounds the transmit log. Past it, segments go unlogged and
// simply yield no dense RTT sample.
const maxTxLog = 4096

// txLog is the FIFO of send times behind the dense RTT samples: a ring
// that grows geometrically to maxTxLog entries and is then fixed, so the
// push-per-segment, pop-per-ack cycle never allocates in steady state.
type txLog struct {
	e       []txEntry // len is zero or a power of two
	head, n int
}

// push records that the segment ending at end was first sent at at.
func (l *txLog) push(end uint32, at time.Time) {
	if l.n == len(l.e) {
		if l.n == maxTxLog {
			return
		}
		ne := make([]txEntry, max(2*len(l.e), 64))
		for i := 0; i < l.n; i++ {
			ne[i] = l.e[(l.head+i)&(len(l.e)-1)]
		}
		l.e, l.head = ne, 0
	}
	l.e[(l.head+l.n)&(len(l.e)-1)] = txEntry{end, at}
	l.n++
}

// ackedThrough pops every entry at or below ack and reports the send time
// of the segment ending exactly there, if it was logged.
func (l *txLog) ackedThrough(ack uint32) (at time.Time, ok bool) {
	for l.n > 0 {
		e := l.e[l.head]
		if !seqLEQ(e.end, ack) {
			break
		}
		l.head = (l.head + 1) & (len(l.e) - 1)
		l.n--
		if e.end == ack {
			at, ok = e.at, true
		}
	}
	return at, ok
}

// reset empties the log: a retransmission makes every pending sample
// ambiguous (Karn's algorithm).
func (l *txLog) reset() { l.head, l.n = 0, 0 }
