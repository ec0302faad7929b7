package core

import (
	"io"
	"sort"
	"sync"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/bytering"
	"github.com/pluginized-protocols/gotcpls/internal/record"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
)

// Stream is one TCPLS datastream (§2.3): an ordered, reliable byte
// stream with its own cryptographic context, multiplexed over the
// session's TCP connections. Data carries TCPLS sequence numbers
// (offsets), so it can be sprayed over several connections (multipath)
// and replayed after a connection failure (failover) — the receiver
// reorders and deduplicates by offset.
type Stream struct {
	id      uint32
	session *Session
	remote  bool // opened by the peer

	mu        sync.Mutex
	readCond  *sync.Cond
	writeCond *sync.Cond
	spaceCond *sync.Cond // receive-buffer space freed (backpressure)

	// Send side. replay is the replay buffer (§2.1; DESIGN.md §9): stream
	// bytes [sendOffset-replay.Len(), sendOffset), held until acked. A FIN
	// is outstanding while finSent and ackedTo <= sendOffset. writing
	// serializes Write calls, so at most one burst is being sealed from the
	// ring outside mu: while pinned, bytes from pinOff on stay even if acked.
	writing    sync.Mutex
	sendOffset uint64 // next offset to assign
	ackedTo    uint64
	replay     bytering.Ring
	pinned     bool
	pinOff     uint64
	finSent    bool
	attached   *pathConn // preferred connection (ModeSinglePath)

	// Receive side. Decrypted record payloads are queued as segments
	// still backed by their pooled record buffers; the single copy to
	// application memory happens in Read, which then recycles them.
	recvQ        []recvSeg // recvQ[recvHead:] is queued; the array is kept
	recvHead     int
	recvQBytes   int
	recvNext     uint64
	ooo          []oooSeg
	oooBytes     int // reassembly footprint: data + per-chunk overhead
	finalOffset  uint64
	finKnown     bool
	sinceLastAck uint64

	openedAt time.Time // creation time (TTFB timer start; immutable)
	ttfbSeen bool      // first inbound data byte observed (st.mu)

	err    error
	closed bool
}

// recvSeg is in-order stream data awaiting Read. data points into
// owner, the pooled decrypted-record buffer, which is returned to the
// pool once the segment is fully consumed. A nil owner means the data
// is not pooled (and is simply dropped for the garbage collector).
type recvSeg struct {
	data  []byte
	owner []byte
}

// oooSeg is buffered out-of-order stream data, same ownership rules.
type oooSeg struct {
	off   uint64
	data  []byte
	owner []byte
}

func newStream(s *Session, id uint32, remote bool) *Stream {
	st := &Stream{id: id, session: s, remote: remote, openedAt: time.Now()}
	st.readCond = sync.NewCond(&st.mu)
	st.writeCond = sync.NewCond(&st.mu)
	st.spaceCond = sync.NewCond(&st.mu)
	return st
}

// chunkOverhead is the accounting charge per buffered out-of-order
// chunk beyond its payload, so a spray of tiny fragments cannot dodge
// the byte bound while exploding the chunk count.
const chunkOverhead = 64

// ID returns the stream identifier.
func (st *Stream) ID() uint32 { return st.id }

// Remote reports whether the peer opened this stream.
func (st *Stream) Remote() bool { return st.remote }

// NewStream opens a stream (tcpls_stream_new).
func (s *Session) NewStream() (*Stream, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if len(s.streams) >= s.limits.MaxStreams {
		err := &LimitError{Limit: "streams", Max: s.limits.MaxStreams}
		s.mu.Unlock()
		return nil, err
	}
	if s.plainMode && len(s.streams) >= 1 {
		// Plain TLS has no stream multiplexing on the wire: a degraded
		// session carries exactly one stream.
		s.mu.Unlock()
		return nil, ErrCapabilityDisabled
	}
	if err := s.acct.acquireStream(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.acctStreams++
	id := s.nextStreamID
	s.nextStreamID += 2
	st := newStream(s, id, false)
	s.streams[id] = st
	s.mu.Unlock()
	s.emit(telemetry.Event{Kind: telemetry.EvStreamOpen, Stream: id})
	return st, nil
}

// AcceptStream waits for the peer to open a stream.
func (s *Session) AcceptStream() (*Stream, error) {
	st, ok := <-s.acceptCh
	if !ok {
		return nil, ErrSessionClosed
	}
	return st, nil
}

// Streams returns a snapshot of the session's streams, in id order.
func (s *Session) Streams() []*Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Stream, 0, len(s.streams))
	for _, st := range s.streams {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// getOrCreateStream resolves inbound stream ids, creating peer-opened
// streams and announcing them via AcceptStream/StreamOpened.
func (s *Session) getOrCreateStream(id uint32, pc *pathConn) *Stream {
	s.mu.Lock()
	if st, ok := s.streams[id]; ok {
		s.mu.Unlock()
		return st
	}
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if len(s.streams) >= s.limits.MaxStreams {
		// A peer opening streams past the negotiated budget is violating
		// the protocol, not reordering: refusing the stream silently
		// would desynchronize the two ends, so the session ends.
		err := &LimitError{Limit: "streams", Max: s.limits.MaxStreams}
		s.mu.Unlock()
		s.teardown(err)
		return nil
	}
	if err := s.acct.acquireStream(); err != nil {
		// The process-wide stream budget is gone: this session is within
		// its own limits, but the server as a whole is not — end the
		// session with the typed overload error rather than desync.
		s.mu.Unlock()
		s.teardown(err)
		return nil
	}
	s.acctStreams++
	st := newStream(s, id, true)
	st.attached = pc
	s.streams[id] = st
	s.mu.Unlock()
	s.emit(telemetry.Event{Kind: telemetry.EvStreamOpen, Stream: id, A: 1})
	select {
	case s.acceptCh <- st:
	default:
	}
	if cb := s.cfg.Callbacks.StreamOpened; cb != nil {
		cb(st)
	}
	return st
}

// Attach pins the stream to one of the session's TCP connections
// (tcpls_streams_attach): in single-path mode, all its data flows there.
func (st *Stream) Attach(pathID uint32) error {
	pc := st.session.path(pathID)
	if pc == nil {
		return ErrNoConnection
	}
	st.mu.Lock()
	st.attached = pc
	st.mu.Unlock()
	return nil
}

// AttachedPath returns the current attachment (0 if none).
func (st *Stream) AttachedPath() uint32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.attached == nil {
		return 0
	}
	return st.attached.id
}

// pickConnInfo selects the connection for the next chunk, also
// reporting the free congestion-window estimate and whether the
// transport is introspectable (aggregate pacing uses both).
func (st *Stream) pickConnInfo() (*pathConn, int, bool) {
	s := st.session
	st.mu.Lock()
	attached := st.attached
	st.mu.Unlock()
	if s.cfg.Mode == ModeSinglePath {
		if attached != nil && !attached.isClosed() {
			return attached, 0, false
		}
		pc := s.primaryPath()
		if pc != nil {
			st.mu.Lock()
			st.attached = pc
			st.mu.Unlock()
		}
		return pc, 0, false
	}
	// Aggregation: pick the live connection with the most free
	// congestion window (cross-layer scheduling); fall back to the
	// primary when nothing is introspectable.
	var best *pathConn
	bestFree := -1
	introspectable := false
	for _, pc := range s.livePaths() {
		free := 0
		if in := pc.introspector(); in != nil {
			introspectable = true
			cwnd, inflight, _ := in.CWndInfo()
			free = cwnd - inflight
		}
		if free > bestFree {
			best, bestFree = pc, free
		}
	}
	return best, bestFree, introspectable
}

// Write implements io.Writer: data is copied once, into the replay ring,
// sequenced, sealed under the stream's context straight from the ring and
// retained there until acked. It proceeds in bursts: up to maxWriteBurst
// chunks enter the ring under one stream-lock acquisition and go to the
// path as spans of the ring — pinned, so they can be read outside st.mu —
// for one seal pass and one transport write. In aggregation mode a burst
// is one cwnd-matched chunk, because each chunk re-picks the least-loaded
// path (striping granularity is the point there, not batching).
func (st *Stream) Write(p []byte) (int, error) {
	st.writing.Lock()
	defer st.writing.Unlock()
	s := st.session
	var reg writerReg
	defer reg.move(nil)
	total := 0
	for len(p) > 0 {
		st.mu.Lock()
		if reg.pc != nil && st.replayFull() {
			// About to wait for the peer's acks: hand the ones this path
			// owes the peer back to the read loop first.
			st.mu.Unlock()
			reg.move(nil)
			continue
		}
		for st.replayFull() {
			st.writeCond.Wait()
		}
		err := st.err
		if err == nil && (st.finSent || st.closed) {
			err = ErrSessionClosed
		}
		st.mu.Unlock()
		if err != nil {
			return total, err
		}

		pc, free, introspectable := st.pickConnInfo()
		if pc == nil {
			// Migration/failover gap: wait for the session to re-establish
			// connectivity rather than failing the write — the paper's
			// server "seamlessly switches the path while looping over
			// tcpls_send" (§3.2).
			reg.move(nil)
			pc = s.waitForPath(30 * time.Second)
			if pc == nil {
				return total, ErrNoConnection
			}
			continue
		}
		aggregate := s.cfg.Mode == ModeAggregate
		if aggregate && introspectable && free < 1024 {
			// Every path's window is full: writing now would block on one
			// TCP connection's buffer and starve the others. Yield until
			// acks open a window somewhere (cross-layer pacing).
			reg.move(nil)
			time.Sleep(s.cfg.Clock.ScaleDuration(500 * time.Microsecond))
			continue
		}
		reg.move(pc)
		chunkLen := pc.chunkSize()
		burst := maxWriteBurst * chunkLen
		if aggregate {
			burst = chunkLen // per-chunk path re-selection stripes the load
		}

		st.mu.Lock()
		off := st.sendOffset
		n := st.replay.Write(p[:min(len(p), burst)], replayBufferLimit)
		a, b := st.replay.Spans(st.replay.Len()-n, n)
		st.sendOffset += uint64(n)
		st.pinned, st.pinOff = true, off
		st.mu.Unlock()
		p = p[n:]
		total += n

		err = pc.writeStream(st, off, a, b, chunkLen, false)

		st.mu.Lock()
		st.pinned = false
		if s.cfg.DisableAcks {
			// No ack will ever release these bytes: the transport has them.
			st.ackedTo = max(st.ackedTo, st.sendOffset)
		}
		st.trimReplay()
		st.mu.Unlock()
		if err != nil {
			// The connection died mid-write: the bytes stay in the replay
			// ring for failover. Fail only if the whole session is done.
			pc.handleDeath(err)
			if s.Closed() {
				return total, err
			}
		}
	}
	return total, nil
}

// replayFull reports whether Write must wait for acks (never with
// DisableAcks: every burst empties the ring). Caller holds st.mu.
func (st *Stream) replayFull() bool {
	return st.replay.Len() >= replayBufferLimit && st.err == nil
}

// writerReg is one Write call's registration as a data writer on a path:
// while a path has one, its read loop leaves pending control frames to
// the writer's lockWrite/unlockWrite and never itself writes to a
// transport the writer may have filled. Held from the first burst until
// Write returns, changes path or has to wait for the peer.
type writerReg struct{ pc *pathConn }

func (w *writerReg) move(pc *pathConn) {
	if w.pc == pc {
		return
	}
	if w.pc != nil {
		w.pc.writers.Add(-1)
		w.pc.kick()
	}
	if pc != nil {
		pc.writers.Add(1)
	}
	w.pc = pc
}

// Close half-closes the stream (tcpls_stream_close): a FIN chunk marks
// the final offset; the peer reads io.EOF after consuming everything.
// Closing the last stream attached to a connection is the paper's
// mechanism for closing that connection (§2.1) — the session handles
// that at the public-API layer.
func (st *Stream) Close() error {
	st.mu.Lock()
	if st.finSent {
		st.mu.Unlock()
		return nil
	}
	st.finSent = true
	final := st.sendOffset
	st.mu.Unlock()
	st.session.emit(telemetry.Event{
		Kind:   telemetry.EvStreamClose,
		Stream: st.id,
		A:      int64(final),
	})
	pc, _, _ := st.pickConnInfo()
	if pc == nil {
		pc = st.session.waitForPath(30 * time.Second)
	}
	if pc == nil {
		return ErrNoConnection
	}
	if err := pc.writeStream(st, final, nil, nil, 0, true); err != nil {
		pc.handleDeath(err)
	}
	return nil
}

// Read implements io.Reader with in-order delivery. This is the single
// copy on the receive path: queued segments still live in their pooled
// record buffers, and a fully consumed segment's buffer is recycled
// here — the returned bytes never alias them.
func (st *Stream) Read(p []byte) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.recvQBytes > 0 {
			n := 0
			for n < len(p) && st.recvHead < len(st.recvQ) {
				seg := &st.recvQ[st.recvHead]
				m := copy(p[n:], seg.data)
				n += m
				if m == len(seg.data) {
					bufpool.Put(seg.owner)
					*seg = recvSeg{}
					st.recvHead++
				} else {
					seg.data = seg.data[m:]
				}
			}
			st.recvQBytes -= n
			if st.recvHead == len(st.recvQ) {
				st.recvQ, st.recvHead = st.recvQ[:0], 0
			} else if st.recvHead >= 64 && 2*st.recvHead >= len(st.recvQ) {
				// A queue that never quite drains must not creep up its
				// array: slide the live half down once it is the smaller.
				k := copy(st.recvQ, st.recvQ[st.recvHead:])
				clear(st.recvQ[k:])
				st.recvQ, st.recvHead = st.recvQ[:k], 0
			}
			st.spaceCond.Broadcast() // wake read loops parked on backpressure
			return n, nil
		}
		if st.finKnown && st.recvNext >= st.finalOffset {
			return 0, io.EOF
		}
		if st.err != nil {
			return 0, st.err
		}
		st.readCond.Wait()
	}
}

// deliver ingests one inbound chunk: trim duplicates, reorder, ack.
// It enforces the stream's receive-memory budget in two regimes. A full
// in-order buffer means the application is slow: the calling read loop
// parks here until Read frees space, which stops draining the TCP
// connection and lets transport flow control push back on the peer. An
// out-of-order set past the budget cannot come from a compliant sender
// (its replay buffer bounds un-acked data, and there is no TCPLS-layer
// retransmission to re-request a dropped chunk), so it is treated as an
// attack and the session is torn down with a typed LimitError.
func (st *Stream) deliver(pc *pathConn, chunk *record.StreamChunk, owner []byte) {
	limit := st.session.limits.MaxStreamRecvBuffer
	st.mu.Lock()
	if chunk.Offset > st.recvNext &&
		st.oooBytes+len(chunk.Data)+chunkOverhead > limit {
		st.mu.Unlock()
		bufpool.Put(owner)
		st.session.teardown(&LimitError{Limit: "stream reassembly", Max: limit})
		return
	}
	for st.err == nil && st.recvQBytes >= limit {
		st.spaceCond.Wait()
	}
	if st.err != nil {
		st.mu.Unlock()
		bufpool.Put(owner)
		return
	}
	if chunk.Fin && !st.finKnown {
		st.finKnown = true
		st.finalOffset = chunk.Offset + uint64(len(chunk.Data))
	}
	st.ingest(chunk, owner)
	firstData := len(chunk.Data) > 0 && !st.ttfbSeen
	if firstData {
		st.ttfbSeen = true
	}
	st.sinceLastAck += uint64(len(chunk.Data))
	finDelivered := st.finKnown && st.recvNext >= st.finalOffset
	needAck := !st.session.cfg.DisableAcks &&
		(st.sinceLastAck >= ackInterval || finDelivered)
	var ackOffset uint64
	if needAck {
		st.sinceLastAck = 0
		ackOffset = st.recvNext
		if finDelivered {
			// The FIN occupies one virtual sequence slot: acking past the
			// final offset tells the sender the FIN itself arrived, so it
			// can release the FIN chunk from the replay buffer. An ack at
			// exactly finalOffset only covers the data — the FIN may have
			// died with a failed connection and still need replaying.
			ackOffset = st.finalOffset + 1
		}
	}
	st.readCond.Broadcast()
	st.mu.Unlock()
	if firstData {
		// Time-to-first-byte: stream creation to its first delivered
		// inbound data byte (virtual time).
		st.session.observePhase("ttfb_ns", st.openedAt)
	}
	if needAck {
		pc.queueAck(record.Ack{StreamID: st.id, Offset: ackOffset})
	}
}

// ingest merges a chunk into the receive state, taking ownership of the
// pooled buffer backing chunk.Data. Caller holds st.mu. Buffers are
// queued, not copied: in-order data waits for Read, out-of-order data
// waits for the gap to fill, and only fully duplicate data recycles its
// buffer immediately.
func (st *Stream) ingest(chunk *record.StreamChunk, owner []byte) {
	data := chunk.Data
	off := chunk.Offset
	if off < st.recvNext {
		skip := st.recvNext - off
		if skip >= uint64(len(data)) {
			bufpool.Put(owner)
			return // complete duplicate (failover replay)
		}
		data = data[skip:]
		off = st.recvNext
	}
	if off == st.recvNext {
		if len(data) > 0 {
			st.recvQ = append(st.recvQ, recvSeg{data: data, owner: owner})
			st.recvQBytes += len(data)
			st.recvNext += uint64(len(data))
		} else {
			bufpool.Put(owner)
		}
		st.drainOOO()
		return
	}
	// Out of order: insert sorted by offset (multipath reordering).
	idx := sort.Search(len(st.ooo), func(i int) bool { return st.ooo[i].off >= off })
	if idx < len(st.ooo) && st.ooo[idx].off == off && len(st.ooo[idx].data) >= len(data) {
		bufpool.Put(owner)
		return
	}
	st.ooo = append(st.ooo, oooSeg{})
	copy(st.ooo[idx+1:], st.ooo[idx:])
	st.ooo[idx] = oooSeg{off: off, data: data, owner: owner}
	st.oooBytes += len(data) + chunkOverhead
}

// drainOOO pulls newly contiguous chunks into the receive queue.
// Caller holds st.mu.
func (st *Stream) drainOOO() {
	for len(st.ooo) > 0 {
		c := st.ooo[0]
		if c.off > st.recvNext {
			return
		}
		st.ooo[0] = oooSeg{}
		st.ooo = st.ooo[1:]
		st.oooBytes -= len(c.data) + chunkOverhead
		if skip := st.recvNext - c.off; skip < uint64(len(c.data)) {
			st.recvQ = append(st.recvQ, recvSeg{data: c.data[skip:], owner: c.owner})
			st.recvQBytes += len(c.data) - int(skip)
			st.recvNext += uint64(len(c.data)) - skip
		} else {
			bufpool.Put(c.owner) // overtaken by newer data: duplicate
		}
	}
}

// handleAck releases the replay buffer below offset. An ack of exactly
// the final offset covers the data only; the FIN stays outstanding until
// the receiver acks one past it.
func (st *Stream) handleAck(offset uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if offset <= st.ackedTo {
		return
	}
	st.ackedTo = offset
	st.trimReplay()
	st.writeCond.Broadcast()
}

// trimReplay discards the acked head of the replay ring, short of a burst
// Write is still sealing from. Caller holds st.mu.
func (st *Stream) trimReplay() {
	upTo := min(st.ackedTo, st.sendOffset)
	if st.pinned {
		upTo = min(upTo, st.pinOff)
	}
	if base := st.sendOffset - uint64(st.replay.Len()); upTo > base {
		st.replay.Discard(int(upTo - base))
	}
}

// replayUnacked resends the replay buffer on pc (failover, §2.1: "replay
// the records that have been lost"; the receiver deduplicates). Acks keep
// arriving, so the ring is read under st.mu only: each round copies the
// next unacked stretch out and sends the copy. Bytes written after the
// replay began are their Write's to send, on pc from now on.
func (st *Stream) replayUnacked(pc *pathConn) {
	st.mu.Lock()
	st.attached = pc
	end := st.sendOffset
	st.mu.Unlock()
	buf := bufpool.Get(64 << 10)
	defer bufpool.Put(buf)
	for next := uint64(0); ; {
		st.mu.Lock()
		base := st.sendOffset - uint64(st.replay.Len())
		next = min(max(next, base), end)
		n := min(int(end-next), len(buf))
		a, b := st.replay.Spans(int(next-base), n)
		copy(buf[copy(buf, a):], b)
		fin := next+uint64(n) == st.sendOffset && st.finSent && st.ackedTo <= st.sendOffset
		st.mu.Unlock()
		if n == 0 && !fin {
			return
		}
		chunkLen := pc.chunkSize()
		st.session.ctr.replays.Add(uint64((n + chunkLen - 1) / chunkLen))
		if fin {
			st.session.ctr.replays.Add(1)
		}
		if err := pc.writeStream(st, next, buf[:n], nil, chunkLen, fin); err != nil || fin {
			return
		}
		next += uint64(n)
	}
}

// terminate fails the stream (session death) and recycles its queued
// receive buffers — nothing will Read them. Safe under st.mu: Read
// copies out under the same lock, so no reader holds a segment here.
func (st *Stream) terminate(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.closed = true
	for _, seg := range st.recvQ[st.recvHead:] {
		bufpool.Put(seg.owner)
	}
	st.recvQ, st.recvHead, st.recvQBytes = nil, 0, 0
	if !st.pinned {
		st.replay = bytering.Ring{} // nothing will replay it
	}
	for _, o := range st.ooo {
		bufpool.Put(o.owner)
	}
	st.ooo, st.oooBytes = nil, 0
	st.readCond.Broadcast()
	st.writeCond.Broadcast()
	st.spaceCond.Broadcast() // free read loops parked on backpressure
	st.mu.Unlock()
}

// BytesUnacked reports the replay-buffer occupancy (introspection).
func (st *Stream) BytesUnacked() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.replay.Len()
}

// StreamState is a point-in-time snapshot of one stream's transfer
// state — the first thing to look at when a chaos run wedges.
type StreamState struct {
	ID           uint32
	SendOffset   uint64 // next send offset to assign
	AckedTo      uint64 // highest cumulative ack received
	Unacked      int    // replay-buffer bytes
	FinSent      bool
	RecvNext     uint64 // next in-order receive offset
	OOO          int    // buffered out-of-order chunks
	OOOBytes     int    // reassembly footprint (data + overhead)
	RecvBuffered int    // in-order bytes awaiting Read
	FinKnown     bool
	FinalOff     uint64
}

func (st *Stream) state() StreamState {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StreamState{
		ID:           st.id,
		SendOffset:   st.sendOffset,
		AckedTo:      st.ackedTo,
		Unacked:      st.replay.Len(),
		FinSent:      st.finSent,
		RecvNext:     st.recvNext,
		OOO:          len(st.ooo),
		OOOBytes:     st.oooBytes,
		RecvBuffered: st.recvQBytes,
		FinKnown:     st.finKnown,
		FinalOff:     st.finalOffset,
	}
}

// StreamStates snapshots every stream of the session, in id order.
func (s *Session) StreamStates() []StreamState {
	streams := s.Streams()
	out := make([]StreamState, 0, len(streams))
	for _, st := range streams {
		out = append(out, st.state())
	}
	return out
}
