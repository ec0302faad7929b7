package quicbase

import (
	"encoding/binary"
	"io"
	"sort"
	"sync"
	"time"
)

// Protected packet: [ptProtected][cid u64][pktnum u64][ciphertext]
// where plaintext is a sequence of frames. The packet number doubles as
// the AEAD nonce counter (XORed into the static IV) and the AAD is the
// 17-byte header.

func (c *Conn) seal(frames []byte) ([]byte, uint64) {
	c.mu.Lock()
	num := c.pktNum
	c.pktNum++
	aead, iv := c.sendAEAD, c.sendIV
	c.mu.Unlock()
	hdr := make([]byte, 17, 17+len(frames)+16)
	hdr[0] = ptProtected
	binary.BigEndian.PutUint64(hdr[1:], c.cid)
	binary.BigEndian.PutUint64(hdr[9:], num)
	nonce := make([]byte, len(iv))
	copy(nonce, iv)
	for i := 0; i < 8; i++ {
		nonce[len(nonce)-8+i] ^= hdr[9+i]
	}
	return aead.Seal(hdr, nonce, frames, hdr[:17]), num
}

// sendFrames seals and transmits one packet, registering it for loss
// recovery when ackEliciting. Retransmissions resend the sealed packet
// verbatim (same packet number), so the receiver's cumulative ack can
// pass the hole — quicbase's substitute for QUIC's ack ranges.
func (c *Conn) sendFrames(frames []byte, ackEliciting bool) {
	pkt, num := c.seal(frames)
	if ackEliciting {
		c.mu.Lock()
		c.inflight[num] = &sentPacket{num: num, raw: pkt, size: len(pkt), sentAt: time.Now()}
		c.bytesOut += len(pkt)
		c.mu.Unlock()
		c.armRetransmit()
	}
	c.endpoint.send(c.remoteAddr(), pkt)
}

func (c *Conn) armRetransmit() {
	clock := c.endpoint.host.Network()
	c.mu.Lock()
	clock.Schedule(&c.rtxTimer, 250*time.Millisecond, c.onRetransmit)
	c.mu.Unlock()
}

// onRetransmit resends everything outstanding verbatim (simplified PTO).
func (c *Conn) onRetransmit() {
	c.mu.Lock()
	if c.closed || len(c.inflight) == 0 {
		c.mu.Unlock()
		return
	}
	c.ctrl.OnRetransmitTimeout(c.bytesOut)
	pkts := make([]*sentPacket, 0, len(c.inflight))
	for _, sp := range c.inflight {
		pkts = append(pkts, sp)
	}
	c.mu.Unlock()
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].num < pkts[j].num })
	for _, sp := range pkts {
		c.endpoint.send(c.remoteAddr(), sp.raw)
	}
	c.armRetransmit()
}

// inputProtected decrypts and dispatches one protected packet body
// (after type+cid: pktnum + ciphertext).
func (c *Conn) inputProtected(b []byte) {
	if len(b) < 8 {
		return
	}
	<-c.handshakeDone
	c.mu.Lock()
	aead, iv := c.recvAEAD, c.recvIV
	c.mu.Unlock()
	if aead == nil {
		return
	}
	num := binary.BigEndian.Uint64(b)
	hdr := make([]byte, 17)
	hdr[0] = ptProtected
	binary.BigEndian.PutUint64(hdr[1:], c.cid)
	binary.BigEndian.PutUint64(hdr[9:], num)
	nonce := make([]byte, len(iv))
	copy(nonce, iv)
	for i := 0; i < 8; i++ {
		nonce[len(nonce)-8+i] ^= b[i]
	}
	plain, err := aead.Open(nil, nonce, b[8:], hdr)
	if err != nil {
		return
	}
	c.mu.Lock()
	if num > c.largest {
		c.largest = num
	}
	// Duplicate suppression: retransmissions reuse packet numbers.
	if num < c.nextExpected || c.future[num] {
		cum := c.nextExpected
		c.mu.Unlock()
		var ack []byte
		ack = append(ack, frAck)
		ack = binary.BigEndian.AppendUint64(ack, cum)
		c.sendFrames(ack, false)
		return
	}
	// Contiguous cumulative accounting: only packets below nextExpected
	// are acknowledged, so losses keep being retransmitted.
	if num == c.nextExpected {
		c.nextExpected++
		for c.future[c.nextExpected] {
			delete(c.future, c.nextExpected)
			c.nextExpected++
		}
	} else if num > c.nextExpected {
		c.future[num] = true
	}
	cum := c.nextExpected
	c.mu.Unlock()
	ackEliciting := c.dispatchFrames(plain)
	if ackEliciting {
		var ack []byte
		ack = append(ack, frAck)
		ack = binary.BigEndian.AppendUint64(ack, cum)
		c.sendFrames(ack, false)
	}
}

// dispatchFrames walks the frames; reports whether any elicit an ack.
func (c *Conn) dispatchFrames(b []byte) bool {
	eliciting := false
	for len(b) > 0 {
		switch b[0] {
		case frStream:
			if len(b) < 16 {
				return eliciting
			}
			id := binary.BigEndian.Uint32(b[1:])
			off := binary.BigEndian.Uint64(b[5:])
			fin := b[13] == 1
			n := int(binary.BigEndian.Uint16(b[14:]))
			if len(b) < 16+n {
				return eliciting
			}
			data := b[16 : 16+n]
			c.streamDeliver(id, off, fin, data)
			b = b[16+n:]
			eliciting = true
		case frAck:
			if len(b) < 9 {
				return eliciting
			}
			c.handleAck(binary.BigEndian.Uint64(b[1:]))
			b = b[9:]
		case frPing:
			b = b[1:]
			eliciting = true
		case frClose:
			c.close(io.EOF)
			return false
		default:
			return eliciting
		}
	}
	return eliciting
}

// handleAck acknowledges all packets below cum (all-received-contiguous
// cumulative ack — a simplification of QUIC's ranges).
func (c *Conn) handleAck(cum uint64) {
	c.mu.Lock()
	acked := 0
	for num, sp := range c.inflight {
		if num < cum {
			acked += sp.size
			c.bytesOut -= sp.size
			delete(c.inflight, num)
		}
	}
	// Fast retransmit: three acks stuck at the same cumulative point
	// mean the packet at cum was lost — resend it without waiting for
	// the probe timeout.
	var fastRtx *sentPacket
	if cum == c.lastCum && len(c.inflight) > 0 {
		c.dupCum++
		if c.dupCum >= 3 {
			c.dupCum = 0
			var lowest *sentPacket
			for _, sp := range c.inflight {
				if lowest == nil || sp.num < lowest.num {
					lowest = sp
				}
			}
			if lowest != nil {
				fastRtx = lowest
				c.ctrl.OnFastRetransmit(c.bytesOut)
				c.ctrl.OnRecoveryExit()
			}
		}
	} else {
		c.lastCum = cum
		c.dupCum = 0
	}
	empty := len(c.inflight) == 0
	if acked > 0 {
		// Under c.mu like every other use of the controller and of
		// bytesOut: Stream.Write reads both while this runs.
		c.ctrl.OnAck(acked, 0, c.bytesOut)
	}
	c.mu.Unlock()
	if fastRtx != nil {
		c.endpoint.send(c.remoteAddr(), fastRtx.raw)
	}
	if empty {
		c.mu.Lock()
		c.rtxTimer.Stop()
		c.mu.Unlock()
	}
	// Wake writers blocked on the window.
	c.mu.Lock()
	for _, st := range c.streams {
		st.cond.Broadcast()
	}
	c.mu.Unlock()
}

func (c *Conn) close(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closeErr = err
	c.rtxTimer.Stop()
	streams := make([]*Stream, 0, len(c.streams))
	for _, st := range c.streams {
		streams = append(streams, st)
	}
	close(c.accepts)
	c.mu.Unlock()
	c.hs.close()
	for _, st := range streams {
		st.mu.Lock()
		if st.err == nil {
			st.err = err
		}
		st.cond.Broadcast()
		st.mu.Unlock()
	}
	e := c.endpoint
	e.mu.Lock()
	delete(e.conns, c.cid)
	e.mu.Unlock()
}

// Close sends a CLOSE frame and tears down.
func (c *Conn) Close() error {
	c.sendFrames([]byte{frClose}, false)
	c.close(ErrClosed)
	return nil
}

// Rebind moves the client to a new local address family by simply
// sending from it — the server follows the connection ID (migration).
func (c *Conn) Rebind() {
	c.sendFrames([]byte{frPing}, true)
}

// Stream is a quicbase stream.
type Stream struct {
	id   uint32
	conn *Conn

	mu   sync.Mutex
	cond *sync.Cond

	sendOff uint64
	recvBuf []byte
	recvOff uint64
	ooo     map[uint64][]byte
	finOff  uint64
	finSet  bool
	err     error
}

func newQStream(c *Conn, id uint32) *Stream {
	st := &Stream{id: id, conn: c, ooo: make(map[uint64][]byte)}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// OpenStream creates a stream.
func (c *Conn) OpenStream() (*Stream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	st := newQStream(c, c.nextID)
	c.nextID += 2
	c.streams[st.id] = st
	return st, nil
}

// AcceptStream waits for a peer-opened stream.
func (c *Conn) AcceptStream() (*Stream, error) {
	st, ok := <-c.accepts
	if !ok {
		return nil, ErrClosed
	}
	return st, nil
}

func (c *Conn) streamDeliver(id uint32, off uint64, fin bool, data []byte) {
	c.mu.Lock()
	st := c.streams[id]
	if st == nil {
		if c.closed {
			c.mu.Unlock()
			return
		}
		st = newQStream(c, id)
		c.streams[id] = st
		select {
		case c.accepts <- st:
		default:
		}
	}
	c.mu.Unlock()
	st.deliver(off, fin, data)
}

func (st *Stream) deliver(off uint64, fin bool, data []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if fin && !st.finSet {
		st.finSet = true
		st.finOff = off + uint64(len(data))
	}
	if off < st.recvOff {
		skip := st.recvOff - off
		if skip >= uint64(len(data)) {
			st.cond.Broadcast()
			return
		}
		data = data[skip:]
		off = st.recvOff
	}
	if off == st.recvOff {
		st.recvBuf = append(st.recvBuf, data...)
		st.recvOff += uint64(len(data))
		for {
			nxt, ok := st.ooo[st.recvOff]
			if !ok {
				break
			}
			delete(st.ooo, st.recvOff)
			st.recvBuf = append(st.recvBuf, nxt...)
			st.recvOff += uint64(len(nxt))
		}
	} else {
		st.ooo[off] = append([]byte(nil), data...)
	}
	st.cond.Broadcast()
}

// Write sends stream data under congestion control.
func (st *Stream) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		st.mu.Lock()
		if st.err != nil {
			err := st.err
			st.mu.Unlock()
			return total, err
		}
		st.mu.Unlock()
		// Window check: cap outstanding bytes to cwnd.
		c := st.conn
		c.mu.Lock()
		for c.bytesOut >= c.ctrl.CWnd() && !c.closed {
			c.mu.Unlock()
			time.Sleep(c.endpoint.host.Network().ScaleDuration(500 * time.Microsecond))
			c.mu.Lock()
		}
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return total, ErrClosed
		}
		n := min(len(p), 1200)
		st.mu.Lock()
		off := st.sendOff
		st.sendOff += uint64(n)
		st.mu.Unlock()
		st.conn.sendFrames(streamFrame(st.id, off, false, p[:n]), true)
		p = p[n:]
		total += n
	}
	return total, nil
}

// Close sends FIN.
func (st *Stream) Close() error {
	st.mu.Lock()
	off := st.sendOff
	st.mu.Unlock()
	st.conn.sendFrames(streamFrame(st.id, off, true, nil), true)
	return nil
}

// Read delivers in-order stream data.
func (st *Stream) Read(p []byte) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if len(st.recvBuf) > 0 {
			n := copy(p, st.recvBuf)
			st.recvBuf = st.recvBuf[n:]
			return n, nil
		}
		if st.finSet && st.recvOff >= st.finOff {
			return 0, io.EOF
		}
		if st.err != nil {
			return 0, st.err
		}
		st.cond.Wait()
	}
}

func streamFrame(id uint32, off uint64, fin bool, data []byte) []byte {
	b := make([]byte, 0, 16+len(data))
	b = append(b, frStream)
	b = binary.BigEndian.AppendUint32(b, id)
	b = binary.BigEndian.AppendUint64(b, off)
	if fin {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(data)))
	return append(b, data...)
}
