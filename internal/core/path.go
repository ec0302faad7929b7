package core

import (
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/cc"
	"github.com/pluginized-protocols/gotcpls/internal/record"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
)

// ccSwapper is the optional transport hook for installing a congestion
// controller delivered over the secure channel (tcpnet.Conn has it).
type ccSwapper interface {
	SetCongestionControlImpl(ctrl cc.Controller)
}

// pathConn is one TCP connection of a session, with its TLS machine.
type pathConn struct {
	id      uint32
	session *Session
	tcp     net.Conn
	tls     *tls13.Conn
	joined  bool // attached via JOIN (vs. the initial handshake)
	plain   bool // degraded plain-TLS path: raw bytes, no TCPLS framing

	// writeMu serializes record writes (lockWrite/unlockWrite) and guards
	// the burst scratch: per-record header and TType trailer, sealer views.
	writeMu sync.Mutex
	wHdrs   [maxWriteBurst][record.StreamHeaderLen + 1]byte
	wRecs   [maxWriteBurst]tls13.OutRecord

	// Control frames the read loop originates (DESIGN.md §14): left here,
	// acks coalesced per stream, for whoever holds or next takes writeMu.
	// writers counts the Stream.Write calls in progress on this path.
	pendMu    sync.Mutex
	pendAcks  []record.Ack
	pendPongs []record.Pong
	pending   atomic.Bool
	writers   atomic.Int32

	ctxMu sync.Mutex
	ctxs  map[uint32]bool // stream contexts added on this conn

	health   pathHealth
	failOnce sync.Once // handleConnFailure runs at most once per path

	// accounted marks a held global path slot (set before the path is
	// published in the session's conn table, released once by close).
	accounted bool

	mu     sync.Mutex
	closed bool
	err    error
}

func newPathConn(s *Session, tcp net.Conn, tc *tls13.Conn) *pathConn {
	return &pathConn{
		id:      s.allocPathID(),
		session: s,
		tcp:     tcp,
		tls:     tc,
		ctxs:    make(map[uint32]bool),
	}
}

func (pc *pathConn) isClosed() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.closed
}

// close tears the path down; err nil means orderly.
func (pc *pathConn) close(err error) {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return
	}
	pc.closed = true
	pc.err = err
	pc.mu.Unlock()
	if pc.accounted {
		pc.session.acct.releasePath()
	}
	if err != nil {
		// The path is dead, not finishing: reset instead of a FIN
		// handshake so writers blocked on its full send buffer fail
		// immediately and failover proceeds while the path is still
		// unreachable. An orderly Close would strand them until the
		// transport's own timers give up.
		if ab, ok := pc.tcp.(interface{ Abort() }); ok {
			ab.Abort()
		} else {
			pc.tcp.Close()
		}
	} else {
		pc.tcp.Close()
	}
	failed := int64(0)
	reason := "orderly"
	if err != nil {
		failed = 1
		reason = err.Error()
	}
	pc.session.emit(telemetry.Event{
		Kind: telemetry.EvPathClose,
		Path: pc.id,
		A:    failed,
		S:    reason,
	})
	pc.session.unregisterPathMetrics(pc)
	if cb := pc.session.cfg.Callbacks.ConnClosed; cb != nil {
		cb(pc.id, err != nil)
	}
}

// introspector returns the cross-layer view of the underlying TCP
// connection, or nil when running over an opaque transport.
func (pc *pathConn) introspector() Introspector {
	if in, ok := pc.tcp.(Introspector); ok {
		return in
	}
	return nil
}

// ensureStreamContext makes sure both ends have the stream's crypto
// context on this connection: the first use of a stream on a connection
// sends a StreamOpen control frame (the receiver derives the context on
// receipt) and derives the local context.
func (pc *pathConn) ensureStreamContext(id uint32) error {
	pc.ctxMu.Lock()
	have := pc.ctxs[id]
	if !have {
		pc.ctxs[id] = true
	}
	pc.ctxMu.Unlock()
	if have {
		return nil
	}
	if err := pc.writeControl(record.StreamOpen{StreamID: id}); err != nil {
		return err
	}
	return pc.tls.AddStreamContext(id)
}

// lockWrite takes the write lock and sends the read loop's pending
// control frames ahead of whatever the caller is about to write.
func (pc *pathConn) lockWrite() {
	pc.writeMu.Lock()
	pc.flushPending()
}

// unlockWrite releases the write lock, then sends what was queued while
// it was held: whoever queued it found the lock taken and left it.
func (pc *pathConn) unlockWrite() {
	pc.writeMu.Unlock()
	pc.kick()
}

// kick sends pending control frames unless somebody holds the write lock,
// whose unlockWrite then will.
func (pc *pathConn) kick() {
	for pc.pending.Load() && pc.writeMu.TryLock() {
		pc.flushPending()
		pc.writeMu.Unlock()
	}
}

// queueAck leaves a (cumulative) ack pending, superseding an older one for
// the same stream.
func (pc *pathConn) queueAck(a record.Ack) {
	pc.pendMu.Lock()
	i := 0
	for i < len(pc.pendAcks) && pc.pendAcks[i].StreamID != a.StreamID {
		i++
	}
	if i == len(pc.pendAcks) {
		pc.pendAcks = append(pc.pendAcks, a)
	} else if a.Offset > pc.pendAcks[i].Offset {
		pc.pendAcks[i] = a
	}
	pc.pending.Store(!pc.plain)
	pc.pendMu.Unlock()
	pc.notePending()
}

// maxPendingPongs bounds the pongs owed while the write lock is held: a
// prober that floods goes unanswered past it.
const maxPendingPongs = 64

func (pc *pathConn) queuePong(p record.Pong) {
	pc.pendMu.Lock()
	if len(pc.pendPongs) < maxPendingPongs {
		pc.pendPongs = append(pc.pendPongs, p)
	}
	pc.pending.Store(!pc.plain)
	pc.pendMu.Unlock()
	pc.notePending()
}

// notePending gets the frames just queued sent: a Stream.Write in progress
// on the path sends them with its next burst, and the read loop writes
// them itself only when there is none.
func (pc *pathConn) notePending() {
	if pc.writers.Load() == 0 {
		pc.kick()
	}
}

// flushPending writes the queued frames as control records. Caller holds
// writeMu. A write error is left for the next data write or the read loop
// to report: the path is dying either way.
func (pc *pathConn) flushPending() {
	const maxFlushFrames = record.MaxControlFrames / 2 // per control record
	for pc.pending.Load() {
		buf := bufpool.Get(512)[:0]
		pc.pendMu.Lock()
		acks := min(len(pc.pendAcks), maxFlushFrames)
		pongs := min(len(pc.pendPongs), maxFlushFrames-acks)
		for _, a := range pc.pendAcks[:acks] {
			buf = record.AppendFrame(buf, a)
		}
		for _, p := range pc.pendPongs[:pongs] {
			buf = record.AppendFrame(buf, p)
		}
		pc.pendAcks = pc.pendAcks[:copy(pc.pendAcks, pc.pendAcks[acks:])]
		pc.pendPongs = pc.pendPongs[:copy(pc.pendPongs, pc.pendPongs[pongs:])]
		pc.pending.Store(len(pc.pendAcks)+len(pc.pendPongs) > 0)
		pc.pendMu.Unlock()
		pc.noteControlSent(acks, record.FrameAck)
		pc.noteControlSent(pongs, record.FramePong)
		pc.tls.WriteRecordContext(tls13.DefaultContext, append(buf, byte(record.TTypeControl)))
		bufpool.Put(buf) // a grown (non-class) buffer is silently dropped
	}
}

// noteControlSent counts and traces n control frames of one type.
func (pc *pathConn) noteControlSent(n int, ft record.FrameType) {
	s := pc.session
	s.ctr.ctrlSent.Add(uint64(n))
	if s.tracing() {
		for ; n > 0; n-- {
			s.emit(telemetry.Event{Kind: telemetry.EvCtrlSent, Path: pc.id, S: ft.String()})
		}
	}
}

// writeControl sends control frames on the default context. On a
// degraded plain path there is no secure control channel: frames are
// silently dropped (the capability was shed, not the session).
func (pc *pathConn) writeControl(frames ...record.Frame) error {
	if pc.plain {
		return nil
	}
	for _, f := range frames {
		pc.noteControlSent(1, record.Type(f))
	}
	buf := record.AppendControl(bufpool.Get(512)[:0], frames...)
	err := pc.writeDefault(buf)
	bufpool.Put(buf) // a grown (non-class) buffer is silently dropped
	return err
}

// writeTCPOption ships one TCP option through the secure channel.
func (pc *pathConn) writeTCPOption(o *record.TCPOption) error {
	if pc.plain {
		return ErrCapabilityDisabled
	}
	return pc.writeDefault(record.EncodeTCPOption(o))
}

// writeDefault writes one record on the default context.
func (pc *pathConn) writeDefault(plaintext []byte) error {
	pc.lockWrite()
	defer pc.unlockWrite()
	return pc.tls.WriteRecordContext(tls13.DefaultContext, plaintext)
}

// maxWriteBurst bounds one flush of stream-data records: 15 cwnd-shaped
// records fill the sealer's 64K staging buffer without spilling.
const maxWriteBurst = 15

// writeStream is the one way stream data leaves: it sends the stream bytes
// [off, off+len(a)+len(b)) — a then b, two spans of the replay ring — as
// records of at most chunkLen bytes under the stream's context, then the
// FIN if fin, maxWriteBurst records per transport write. A chunk never
// straddles the spans: the ring's wrap costs one shorter record per lap.
// a and b are read until it returns and not retained.
func (pc *pathConn) writeStream(st *Stream, off uint64, a, b []byte, chunkLen int, fin bool) error {
	if pc.plain {
		return pc.writePlain(st, off, a, b, fin)
	}
	id, s := st.id, pc.session
	if err := pc.ensureStreamContext(id); err != nil {
		return err
	}
	s.touch()
	s.noteBlackoutEnd()
	pc.lockWrite()
	defer pc.unlockWrite()
	for {
		if len(a) == 0 {
			a, b = b, nil
		}
		n, bytes := 0, 0
		for ; n < maxWriteBurst && (len(a) > 0 || fin); n++ {
			chunk := record.StreamChunk{StreamID: id, Offset: off, Data: a[:min(len(a), chunkLen)]}
			if len(a) == 0 {
				chunk.Fin, fin = true, false // the FIN is an empty chunk of its own
			}
			h := pc.wHdrs[n][:]
			record.PutStreamHeader(h, &chunk)
			h[record.StreamHeaderLen] = byte(record.TTypeStreamData)
			pc.wRecs[n] = tls13.OutRecord{
				Ctx:  id,
				Head: h[:record.StreamHeaderLen],
				Body: chunk.Data,
				Tail: h[record.StreamHeaderLen:],
			}
			s.emitRecord(telemetry.EvRecordSent, pc, &chunk)
			a = a[len(chunk.Data):]
			off += uint64(len(chunk.Data))
			bytes += len(chunk.Data)
			if len(a) == 0 {
				a, b = b, nil
			}
		}
		if n == 0 {
			return nil
		}
		s.ctr.recordsSent.Add(uint64(n))
		s.ctr.bytesSent.Add(uint64(bytes))
		if _, err := pc.tls.WriteRecordBatch(pc.wRecs[:n]); err != nil {
			return err
		}
	}
}

// emitRecord traces one stream-data record sent or received on pc.
func (s *Session) emitRecord(kind telemetry.EventKind, pc *pathConn, c *record.StreamChunk) {
	fin := int64(0)
	if c.Fin {
		fin = 1
	}
	s.emit(telemetry.Event{
		Kind:   kind,
		Path:   pc.id,
		Stream: c.StreamID,
		A:      int64(len(c.Data)),
		B:      int64(c.Offset),
		C:      fin,
	})
}

// chunkSize picks the stream-chunk size: fixed if configured, otherwise
// matched to the congestion window's free space so records do not get
// fragmented across segments more than necessary (§4.6).
func (pc *pathConn) chunkSize() int {
	if n := pc.session.cfg.RecordSize; n > 0 {
		return min(n, MaxRecordPayload)
	}
	if in := pc.introspector(); in != nil {
		cwnd, inflight, mss := in.CWndInfo()
		free := cwnd - inflight
		if free < mss {
			free = mss
		}
		// Round down to whole segments, leaving room for the record
		// framing inside the first segment.
		segs := free / mss
		if segs < 1 {
			segs = 1
		}
		n := segs*mss - record.StreamHeaderLen - 64
		return max(min(n, MaxRecordPayload), 512)
	}
	// Opaque transport: with no window to match, the cheapest record is
	// the biggest one — per-record seal and framing costs amortize over
	// MaxRecordPayload, and the kernel segments it however it likes.
	// (The Fig. 2 sweep benchmark measures exactly this trade.)
	return MaxRecordPayload
}

// readBurst is the inbound batch-drain width: how many complete
// buffered records one lock acquisition may hand the read loop.
const readBurst = 16

// readLoop pumps inbound records until the connection dies, draining
// whole bursts per record-layer lock acquisition: the batched read
// returns every record already sitting in the receive buffer, so a
// sender's burst costs one lock round trip and one activity stamp.
func (pc *pathConn) readLoop() {
	recs := make([]tls13.InRecord, readBurst)
	for {
		n, err := pc.tls.ReadRecordContextBatch(recs)
		data := false
		for i := 0; i < n; i++ {
			data = pc.handleRecord(recs[i].Payload) || data
			recs[i] = tls13.InRecord{}
		}
		if data {
			pc.session.touch()
			pc.session.noteBlackoutEnd()
		}
		if err != nil {
			if errors.Is(err, tls13.ErrNoContext) {
				// A record for a context we dropped (stream closed while
				// data was in flight): skip it.
				continue
			}
			pc.handleDeath(err)
			return
		}
	}
}

// handleRecord routes one decrypted record payload and reports whether it
// carried stream data.
//
// plain is a pooled record buffer owned by the read loop. Stream
// chunks alias it (chunk.Data points into plain), so ownership travels
// with the chunk into the stream's receive queue and the buffer is
// recycled when the application consumes it. Control frames and TCP
// options are decoded in place into values or copies, so those arms
// recycle the buffer when done.
func (pc *pathConn) handleRecord(plain []byte) (data bool) {
	tt, content, err := record.Decode(plain)
	if err != nil {
		bufpool.Put(plain)
		return false
	}
	switch tt {
	case record.TTypeStreamData:
		chunk, err := record.DecodeStreamChunk(content)
		if err != nil {
			bufpool.Put(plain)
			return false
		}
		pc.session.dispatchChunk(pc, chunk, plain)
		return true
	case record.TTypeControl:
		pc.handleControl(content)
	case record.TTypeTCPOption:
		if opt, err := record.DecodeTCPOption(content); err == nil {
			pc.session.applyTCPOption(pc, opt)
		}
	}
	bufpool.Put(plain)
	return false
}

// handleControl acts on the frames of one control record in order, up to
// the first malformed one (or the MaxControlFrames-th). Acks, a bulk
// transfer's whole reverse direction, are parsed by value.
func (pc *pathConn) handleControl(content []byte) {
	s := pc.session
	for n := 0; len(content) > 0 && n < record.MaxControlFrames; n++ {
		ft, body, rest, err := record.NextFrame(content)
		if err != nil {
			return
		}
		content = rest
		s.ctr.ctrlRcvd.Add(1)
		s.emit(telemetry.Event{Kind: telemetry.EvCtrlRecv, Path: pc.id, S: ft.String()})
		if ft == record.FrameAck {
			a, err := record.ParseAck(body)
			if err != nil {
				return
			}
			if st := s.stream(a.StreamID); st != nil {
				st.handleAck(a.Offset)
			}
			continue
		}
		f, err := record.DecodeFrame(ft, body)
		if err != nil {
			return
		}
		s.dispatchFrame(pc, f)
	}
}

// handleDeath classifies a read-loop error and triggers failover.
func (pc *pathConn) handleDeath(err error) {
	orderly := errors.Is(err, io.EOF)
	if orderly {
		pc.close(nil)
	} else {
		pc.close(err)
	}
	pc.session.handleConnFailure(pc, err, orderly)
}

// --- session-side dispatch ---

// dispatchChunk routes a stream-data chunk. owner is the pooled record
// buffer chunk.Data aliases (nil when the data is not pooled); ownership
// transfers to the stream, or is recycled here if no stream takes it.
// The calling read loop stamps the activity once per batch.
func (s *Session) dispatchChunk(pc *pathConn, chunk *record.StreamChunk, owner []byte) {
	s.ctr.recordsRcvd.Add(1)
	s.ctr.bytesRcvd.Add(uint64(len(chunk.Data)))
	s.emitRecord(telemetry.EvRecordRecv, pc, chunk)
	st := s.getOrCreateStream(chunk.StreamID, pc)
	if st == nil {
		bufpool.Put(owner)
		return
	}
	st.deliver(pc, chunk, owner)
}

// dispatchFrame acts on one control frame other than an Ack (which
// handleControl takes by value).
func (s *Session) dispatchFrame(pc *pathConn, f record.Frame) {
	switch fr := f.(type) {
	case record.Ping:
		pc.queuePong(record.Pong{Seq: fr.Seq})
	case record.Pong:
		// Liveness confirmed: match the probe, update RTT/loss scoring.
		pc.handlePong(fr.Seq)
	case record.StreamOpen:
		// Peer will send stream data on this conn: derive the context
		// before its first data record arrives (FIFO on this conn).
		pc.ctxMu.Lock()
		known := pc.ctxs[fr.StreamID]
		pc.ctxs[fr.StreamID] = true
		pc.ctxMu.Unlock()
		if !known {
			pc.tls.AddStreamContext(fr.StreamID)
		}
		s.getOrCreateStream(fr.StreamID, pc)
	case record.StreamClose:
		if st := s.stream(fr.StreamID); st != nil {
			st.deliver(pc, &record.StreamChunk{
				StreamID: fr.StreamID, Offset: fr.FinalOffset, Fin: true,
			}, nil)
		}
	case record.AddAddress:
		s.mu.Lock()
		full := len(s.peerAddrs) >= s.limits.MaxPeerAddresses
		if !full {
			s.peerAddrs = append(s.peerAddrs, record.Advertisement{
				Addr: fr.Addr, Port: fr.Port, Primary: fr.Primary,
			})
		}
		s.mu.Unlock()
		if full {
			// ADD_ADDR spray: the address set is advisory, dropping the
			// excess degrades gracefully without ending the session.
			return
		}
		if cb := s.cfg.Callbacks.AddressAdvertised; cb != nil {
			cb(netip.AddrPortFrom(fr.Addr, fr.Port), fr.Primary)
		}
	case record.RemoveAddress:
		s.mu.Lock()
		out := s.peerAddrs[:0]
		for _, a := range s.peerAddrs {
			if a.Addr != fr.Addr {
				out = append(out, a)
			}
		}
		s.peerAddrs = out
		s.mu.Unlock()
	case record.BPFCC:
		// Verify the bytecode, then swap the controller on every live
		// connection whose transport supports it (§3(iii)).
		installed := false
		for _, path := range s.livePaths() {
			if sw, ok := path.tcp.(ccSwapper); ok {
				ctrl, err := cc.LoadEBPF(fr.Name, fr.Bytecode)
				if err != nil {
					return // rejected by the verifier: ignore the plugin
				}
				sw.SetCongestionControlImpl(ctrl)
				installed = true
			}
		}
		if installed {
			if cb := s.cfg.Callbacks.CCInstalled; cb != nil {
				cb("ebpf:" + fr.Name)
			}
		}
	case record.SessionClose:
		s.teardown(nil)
	case record.ConnClose:
		// Peer finished with this TCP connection (migration, §3.2):
		// close it gracefully. Failover still gets a look: if this was
		// the last connection and streams are still open, the session
		// must re-establish rather than strand the writers.
		pc.close(nil)
		s.handleConnFailure(pc, nil, true)
	}
}

// applyTCPOption performs the receiver side of §3.1: "the server
// extracts it and performs the required setsockopt".
func (s *Session) applyTCPOption(pc *pathConn, opt *record.TCPOption) {
	if d, ok := opt.UserTimeout(); ok {
		// Durations on the secure channel are virtual; introspectable
		// transports (tcpnet) scale internally.
		if in := pc.introspector(); in != nil {
			in.SetUserTimeout(d)
		}
	}
	if cb := s.cfg.Callbacks.TCPOption; cb != nil {
		cb(opt.Kind, opt.Data)
	}
}
