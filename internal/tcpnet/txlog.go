package tcpnet

import "time"

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
