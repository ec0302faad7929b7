package tcpnet

import (
	"io"
	"os"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/wire"
)

// Read implements net.Conn: it blocks until data, EOF (peer FIN after the
// buffer drains), an error, or the read deadline. This copy out of the
// queued packet buffers is the receive path's single copy; each buffer
// returns to the pool once fully consumed.
func (c *Conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.rcvQBytes > 0 {
			n := 0
			for n < len(b) && c.rcvHead < len(c.rcvQ) {
				s := &c.rcvQ[c.rcvHead]
				k := copy(b[n:], s.data)
				n += k
				if k == len(s.data) {
					bufpool.Put(s.owner)
					*s = rxSeg{}
					c.rcvHead++
				} else {
					s.data = s.data[k:]
				}
			}
			if c.rcvHead == len(c.rcvQ) {
				// Caught up: rewind, keeping the array for the next burst.
				c.rcvQ, c.rcvHead = c.rcvQ[:0], 0
			}
			c.rcvQBytes -= n
			// Window update: if we had closed the window, reopen it.
			if c.lastAdvW < c.mss && c.recvWindow() >= 2*c.mss && c.st == stateEstablished {
				c.sendAck()
			}
			return n, nil
		}
		if c.peerFin {
			return 0, io.EOF
		}
		if c.err != nil {
			return 0, c.err
		}
		if c.st == stateClosed || c.st == stateTimeWait {
			return 0, io.EOF
		}
		if !c.readDeadline.IsZero() && !time.Now().Before(c.readDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		c.readCond.Wait()
	}
}

// Write implements net.Conn: it queues data into the send buffer,
// blocking while the buffer is full, and triggers transmission.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for len(b) > 0 {
		if c.err != nil {
			return total, c.err
		}
		if c.closePending || c.finSent || c.st == stateClosed ||
			c.st == stateFinWait1 || c.st == stateFinWait2 ||
			c.st == stateClosing || c.st == stateLastAck || c.st == stateTimeWait {
			return total, ErrClosed
		}
		if !c.writeDeadline.IsZero() && !time.Now().Before(c.writeDeadline) {
			return total, os.ErrDeadlineExceeded
		}
		if c.sndBuf.Len() >= c.stack.config.SendBuf || c.st == stateSynSent || c.st == stateSynRcvd {
			c.writeCond.Wait()
			continue
		}
		if c.bytesInFlight() == 0 && c.sndBuf.Len() == 0 {
			c.oldestTx = time.Now()
		}
		n := c.sndBuf.Write(b, c.stack.config.SendBuf)
		b = b[n:]
		total += n
		c.maybeSendLocked()
	}
	return total, nil
}

// maybeSendLocked pushes as much buffered data as the congestion and flow
// control windows allow, then a FIN if one is pending. The segments of one
// call are marshalled as they are cut and handed to the host together, so a
// full ACK-clocked flight costs one route lookup, one link-queue pass and
// one clock read. Caller holds c.mu.
func (c *Conn) maybeSendLocked() {
	if c.st != stateEstablished && c.st != stateCloseWait &&
		c.st != stateFinWait1 && c.st != stateClosing && c.st != stateLastAck {
		return
	}
	var now time.Time // read once, when the first segment is cut
	for !c.finSent {
		offset := int(c.sndNxt - c.sndUna) // first unsent byte in sndBuf
		unsent := c.sndBuf.Len() - offset
		if unsent <= 0 {
			break
		}
		usable := min(c.ctrl.CWnd(), c.sndWnd) - offset
		if usable <= 0 {
			if c.sndWnd == 0 && c.bytesInFlight() == 0 {
				c.armPersist()
			}
			break
		}
		n := min(unsent, min(usable, c.mss))
		seg := wire.Segment{
			SrcPort: c.local.Port(), DstPort: c.remote.Port(),
			Seq: c.sndNxt, Ack: c.rcvNxt,
			Flags:   wire.FlagACK,
			Window:  c.windowField(),
			Payload: c.sndBuf.View(offset, n),
		}
		if n == unsent {
			seg.Flags |= wire.FlagPSH
		}
		if now.IsZero() {
			now = time.Now()
		}
		isNew := !seqLT(c.sndNxt, c.sndMax)
		c.sndNxt += uint32(n)
		if seqLT(c.sndMax, c.sndNxt) {
			c.sndMax = c.sndNxt
		}
		c.stats.BytesSent += uint64(n)
		c.stack.ctr.bytesSent.Add(uint64(n))
		if isNew {
			if !c.rttPending {
				c.rttPending = true
				c.rttSeq = c.sndNxt
				c.rttStart = now
			}
			c.txLog.push(c.sndNxt, now)
		}
		if c.oldestTx.IsZero() {
			c.oldestTx = now
		}
		c.queueSegment(&seg)
	}
	if len(c.txPkts) > 0 {
		c.flushSegments()
		c.armRetransmit()
	}
	// FIN once everything is sent.
	if c.closePending && !c.finSent && int(c.sndNxt-c.sndUna) == c.sndBuf.Len() {
		c.sendFIN()
	}
}

// sendFIN emits our FIN and moves the state machine. Caller holds c.mu.
func (c *Conn) sendFIN() {
	c.finSent = true
	c.finSeq = c.sndNxt
	seg := wire.Segment{
		SrcPort: c.local.Port(), DstPort: c.remote.Port(),
		Seq: c.sndNxt, Ack: c.rcvNxt,
		Flags:  wire.FlagFIN | wire.FlagACK,
		Window: c.windowField(),
	}
	c.sndNxt++
	if seqLT(c.sndMax, c.sndNxt) {
		c.sndMax = c.sndNxt
	}
	c.transmit(&seg)
	c.armRetransmit()
	switch c.st {
	case stateEstablished:
		c.setState(stateFinWait1)
	case stateCloseWait:
		c.setState(stateLastAck)
	}
}

// Close implements net.Conn: orderly release (FIN handshake). It does not
// wait for delivery.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.st {
	case stateClosed, stateTimeWait, stateLastAck, stateFinWait1, stateFinWait2, stateClosing:
		return nil
	case stateSynSent, stateSynRcvd:
		c.teardown(ErrClosed)
		return nil
	}
	c.closePending = true
	c.maybeSendLocked()
	return nil
}

// CloseWrite half-closes: sends FIN after the buffered data, but keeps
// receiving.
func (c *Conn) CloseWrite() error { return c.Close() }

// Abort resets the connection immediately (RST), discarding buffers.
func (c *Conn) Abort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st == stateClosed {
		return
	}
	seg := wire.Segment{
		SrcPort: c.local.Port(), DstPort: c.remote.Port(),
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: wire.FlagRST | wire.FlagACK,
	}
	c.transmit(&seg)
	c.teardown(ErrClosed)
}

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readDeadline = t
	if t.IsZero() {
		c.readDLTimer.Stop()
		return nil
	}
	d := time.Until(t)
	if d < 0 {
		d = 0
	}
	// Deadlines are wall-clock instants: WallSchedule bypasses the
	// emulation time scale, and rearming the embedded timer replaces
	// any previous deadline's wakeup.
	c.stack.clock.WallSchedule(&c.readDLTimer, d, func() {
		c.mu.Lock()
		c.readCond.Broadcast()
		c.mu.Unlock()
	})
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeDeadline = t
	if t.IsZero() {
		c.writeDLTimer.Stop()
		return nil
	}
	d := time.Until(t)
	if d < 0 {
		d = 0
	}
	c.stack.clock.WallSchedule(&c.writeDLTimer, d, func() {
		c.mu.Lock()
		c.writeCond.Broadcast()
		c.mu.Unlock()
	})
	return nil
}

// --- Retransmission machinery ---

// updateRTO folds an RTT sample into srtt/rttvar per RFC 6298.
// Caller holds c.mu.
func (c *Conn) updateRTO(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		d := c.srtt - rtt
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

// currentRTO returns the RTO with exponential backoff applied.
// Caller holds c.mu.
func (c *Conn) currentRTO() time.Duration {
	r := c.rto << c.rtoBackoff
	if r > maxRTO {
		r = maxRTO
	}
	return r
}

// armRetransmit (re)arms the retransmission timer. Caller holds c.mu.
// While a flight has not yet had a tail-loss probe, the timer fires after
// a probe timeout (2*SRTT, RACK-TLP style) instead of the full RTO: a
// retransmission of the last segment converts tail loss into dupack-driven
// recovery instead of an RTO collapse.
func (c *Conn) armRetransmit() {
	c.persistQ = false
	d := c.currentRTO()
	cb := c.rtoFn
	if !c.tlpFired && c.rtoBackoff == 0 && c.srtt > 0 && c.st == stateEstablished {
		if pto := 2*c.srtt + 10*time.Millisecond; pto < d {
			d = pto
			cb = c.probeFn
		}
	}
	c.stack.clock.Schedule(&c.rtxTimer, d, cb)
	c.rtxArmed = true
}

// onProbeTimeout sends a tail-loss probe: the highest unacked segment is
// retransmitted without collapsing the congestion window.
func (c *Conn) onProbeTimeout() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st == stateClosed || c.st == stateTimeWait {
		return
	}
	c.tlpFired = true
	if c.bytesInFlight() > 0 && c.sndBuf.Len() > 0 {
		endOff := int(c.sndNxt - c.sndUna)
		if c.finSent {
			endOff = int(c.finSeq - c.sndUna)
		}
		endOff = min(endOff, c.sndBuf.Len())
		n := min(c.mss, endOff)
		if n > 0 {
			startOff := endOff - n
			seg := wire.Segment{
				SrcPort: c.local.Port(), DstPort: c.remote.Port(),
				Seq: c.sndUna + uint32(startOff), Ack: c.rcvNxt,
				Flags:   wire.FlagACK | wire.FlagPSH,
				Window:  c.windowField(),
				Payload: c.sndBuf.View(startOff, n),
			}
			c.stats.Retransmits++
			c.stack.ctr.retransmits.Add(1)
			c.trace().Emit(telemetry.Event{
				Kind: telemetry.EvTCPRetransmit,
				Path: c.traceID,
				A:    int64(seg.Seq),
				B:    int64(n),
				S:    "tlp",
			})
			c.rttPending = false
			c.txLog.reset()
			c.transmit(&seg)
		}
	}
	c.armRetransmit() // now at full RTO
}

// armPersist arms the timer in zero-window-probe mode. Caller holds c.mu.
func (c *Conn) armPersist() {
	if c.persistQ {
		return
	}
	c.persistQ = true
	c.stack.clock.Schedule(&c.rtxTimer, c.currentRTO(), c.persistFn)
}

func (c *Conn) cancelRetransmit() {
	c.rtxTimer.Stop()
	c.rtxArmed = false
	c.persistQ = false
}

// onRetransmitTimeout fires on RTO expiry.
func (c *Conn) onRetransmitTimeout() {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.st {
	case stateClosed, stateTimeWait:
		return
	case stateSynSent, stateSynRcvd:
		c.synTries++
		if c.synTries > c.stack.config.SYNRetries {
			c.teardown(ErrTimeout)
			return
		}
		c.rtoBackoff++
		c.sendSYN(c.st == stateSynRcvd)
		c.armRetransmit()
		return
	}
	if c.bytesInFlight() == 0 && !(c.finSent && seqLT(c.sndUna, c.sndNxt)) {
		return // everything acked since the timer was armed
	}
	// User timeout (RFC 5482).
	if c.userTO > 0 && !c.oldestTx.IsZero() &&
		c.stack.clock.VirtualSince(c.oldestTx) >= c.userTO {
		c.teardown(ErrUserTimeout)
		return
	}
	if c.rtoBackoff > 10 {
		c.teardown(ErrTimeout)
		return
	}
	c.stats.Timeouts++
	c.stack.ctr.timeouts.Add(1)
	c.rtoBackoff++
	c.trace().Emit(telemetry.Event{
		Kind: telemetry.EvTCPRTO,
		Path: c.traceID,
		A:    int64(c.rtoBackoff),
		B:    int64(c.currentRTO()),
	})
	c.rttPending = false // Karn's algorithm
	c.sacked = nil
	c.inRecovery = false
	c.dupAcks = 0
	c.ctrl.OnRetransmitTimeout(c.bytesInFlight())
	// Go-back-N: treat everything in flight as lost and let the normal
	// send path resend it under the collapsed window. Duplicate arrivals
	// are trimmed by the receiver.
	c.stats.Retransmits++
	c.stack.ctr.retransmits.Add(1)
	c.txLog.reset()
	c.rtoRecover = c.sndMax
	c.sndNxt = c.sndUna
	if c.finSent {
		c.finSent = false
	}
	c.maybeSendLocked()
	c.armRetransmit()
}

// onPersistTimeout probes a zero window.
func (c *Conn) onPersistTimeout() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st == stateClosed || c.sndWnd > 0 {
		return
	}
	offset := int(c.sndNxt - c.sndUna)
	if offset < c.sndBuf.Len() {
		// Send a single probe byte beyond the advertised window.
		seg := wire.Segment{
			SrcPort: c.local.Port(), DstPort: c.remote.Port(),
			Seq: c.sndNxt, Ack: c.rcvNxt,
			Flags:   wire.FlagACK | wire.FlagPSH,
			Window:  c.windowField(),
			Payload: c.sndBuf.View(offset, 1),
		}
		c.sndNxt++
		if seqLT(c.sndMax, c.sndNxt) {
			c.sndMax = c.sndNxt
		}
		c.transmit(&seg)
	}
	c.rtoBackoff++
	c.persistQ = false
	c.armPersist()
}

// enterFastRecovery handles the third duplicate ack. Caller holds c.mu.
func (c *Conn) enterFastRecovery() {
	c.inRecovery = true
	c.recoveryEnd = c.sndNxt
	c.rtxNext = c.sndUna
	c.stats.FastRetransmits++
	c.stack.ctr.fastRetransmits.Add(1)
	c.trace().Emit(telemetry.Event{
		Kind: telemetry.EvTCPFastRetransmit,
		Path: c.traceID,
		A:    int64(c.sndUna),
	})
	c.ctrl.OnFastRetransmit(c.bytesInFlight())
	c.sackRetransmit(2)
}

// sackRetransmit resends up to budget segments of un-sacked holes during
// fast recovery, walking rtxNext forward through the scoreboard — a
// simplified RFC 6675 pipe refill. Without SACK it degenerates into
// sequential go-back-N across ack events. Caller holds c.mu.
func (c *Conn) sackRetransmit(budget int) {
	// RFC 6675-style pipe control: retransmissions must fit within the
	// congestion window after crediting SACKed bytes, otherwise recovery
	// floods the bottleneck and loses its own repairs.
	pipe := int(c.sndNxt-c.sndUna) - c.sackedBytes()
	wrapped := false
	first := true
	for budget > 0 {
		// The first hole always goes out (RFC 6675 retransmits the first
		// unsacked segment unconditionally); later ones are pipe-gated so
		// recovery does not flood the bottleneck it is trying to drain.
		if !(first && c.rtxNext == c.sndUna) && pipe+c.mss > c.ctrl.CWnd() {
			return
		}
		first = false
		// Skip sacked ranges (scoreboard is sorted and merged).
		for _, b := range c.sacked {
			if seqLEQ(b.Left, c.rtxNext) && seqLT(c.rtxNext, b.Right) {
				c.rtxNext = b.Right
			}
		}
		if !seqLT(c.rtxNext, c.recoveryEnd) || !seqLT(c.rtxNext, c.sndNxt) {
			// The walker reached the end of the recovery window but holes
			// may remain below (their retransmissions were lost too).
			// Wrap once per event so persistent holes are retried by
			// dupacks instead of waiting for the RTO.
			if wrapped || !seqLT(c.sndUna, c.rtxNext) {
				return
			}
			wrapped = true
			c.rtxNext = c.sndUna
			continue
		}
		off := int(c.rtxNext - c.sndUna)
		if off < 0 || off >= c.sndBuf.Len() {
			return
		}
		// Never past sndNxt: bytes beyond it have not been sent, and a
		// peer acknowledging them would be acknowledging past sndMax.
		n := min(c.mss, c.sndBuf.Len()-off, int(c.sndNxt-c.rtxNext))
		for _, b := range c.sacked {
			if seqLT(c.rtxNext, b.Left) {
				if hole := int(b.Left - c.rtxNext); hole < n {
					n = hole
				}
				break
			}
		}
		seg := wire.Segment{
			SrcPort: c.local.Port(), DstPort: c.remote.Port(),
			Seq: c.rtxNext, Ack: c.rcvNxt,
			Flags:   wire.FlagACK | wire.FlagPSH,
			Window:  c.windowField(),
			Payload: c.sndBuf.View(off, n),
		}
		c.stats.Retransmits++
		c.stack.ctr.retransmits.Add(1)
		c.trace().Emit(telemetry.Event{
			Kind: telemetry.EvTCPRetransmit,
			Path: c.traceID,
			A:    int64(c.rtxNext),
			B:    int64(n),
			S:    "sack",
		})
		c.rttPending = false // Karn
		c.txLog.reset()
		c.transmit(&seg)
		c.rtxNext += uint32(n)
		pipe += n
		budget--
	}
}

// sackedBytes sums the scoreboard ranges within [sndUna, sndNxt).
// Caller holds c.mu.
func (c *Conn) sackedBytes() int {
	total := 0
	for _, b := range c.sacked {
		l, r := b.Left, b.Right
		if seqLT(l, c.sndUna) {
			l = c.sndUna
		}
		if seqLT(c.sndNxt, r) {
			r = c.sndNxt
		}
		if seqLT(l, r) {
			total += int(r - l)
		}
	}
	return total
}
