package core

// Tests for the session layer's byte path: two-way bulk over a bounded
// transport (acks must never wait behind data), the replay ring against a
// byte-slice model through acks, partial acks, FIN and failover replays,
// the steady-state allocation bound of a stream write and an echo, and the
// remaining-AEAD-budget metric.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/record"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
)

// boundedPipe is an in-memory full-duplex connection whose directions
// each hold at most pipeCap bytes: a writer blocks once that much is
// unread, as it would on a full socket buffer. (The bufferedPipe of
// pipe_bench_test.go and of benchmark/, for this package's tests.)
const pipeCap = 256 << 10

type pipeBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

type pipeEnd struct{ r, w *pipeBuf }

func boundedPipe() (net.Conn, net.Conn) {
	mk := func() *pipeBuf {
		b := &pipeBuf{}
		b.cond = sync.NewCond(&b.mu)
		return b
	}
	a2b, b2a := mk(), mk()
	return &pipeEnd{r: b2a, w: a2b}, &pipeEnd{r: a2b, w: b2a}
}

func (p *pipeEnd) Read(b []byte) (int, error) {
	p.r.mu.Lock()
	defer p.r.mu.Unlock()
	for len(p.r.buf) == 0 && !p.r.closed {
		p.r.cond.Wait()
	}
	if len(p.r.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.r.buf)
	p.r.buf = p.r.buf[:copy(p.r.buf, p.r.buf[n:])]
	p.r.cond.Broadcast()
	return n, nil
}

func (p *pipeEnd) Write(b []byte) (int, error) {
	p.w.mu.Lock()
	defer p.w.mu.Unlock()
	total := 0
	for len(b) > 0 {
		if p.w.closed {
			return total, io.ErrClosedPipe
		}
		room := pipeCap - len(p.w.buf)
		if room == 0 {
			p.w.cond.Wait()
			continue
		}
		n := min(len(b), room)
		p.w.buf = append(p.w.buf, b[:n]...)
		b, total = b[n:], total+n
		p.w.cond.Broadcast()
	}
	return total, nil
}

func (p *pipeEnd) Close() error {
	for _, b := range []*pipeBuf{p.r, p.w} {
		b.mu.Lock()
		b.closed = true
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	return nil
}

func (p *pipeEnd) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (p *pipeEnd) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (p *pipeEnd) SetDeadline(t time.Time) error      { return nil }
func (p *pipeEnd) SetReadDeadline(t time.Time) error  { return nil }
func (p *pipeEnd) SetWriteDeadline(t time.Time) error { return nil }

// pipeNet is a listener and dialer over bounded pipes: a TCP stack with
// no link under it.
type pipeNet struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once

	mu    sync.Mutex
	pipes []net.Conn // every client end dialed, so a failed test can cut them
}

func newPipeNet() *pipeNet {
	// Buffered for the connections of one session's worth of dials.
	return &pipeNet{ch: make(chan net.Conn, 4), done: make(chan struct{})}
}

func (l *pipeNet) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeNet) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeNet) Addr() net.Addr { return &net.TCPAddr{} }

// cut closes every pipe: whatever is blocked in one fails instead.
func (l *pipeNet) cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.pipes {
		p.Close()
	}
}

func (l *pipeNet) Dial(netip.Addr, netip.AddrPort, time.Duration) (net.Conn, error) {
	cp, sp := boundedPipe()
	l.mu.Lock()
	l.pipes = append(l.pipes, cp)
	l.mu.Unlock()
	select {
	case l.ch <- sp:
		return cp, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// pipeSessions opens one session over bounded pipes and returns both
// ends; cleanup closes everything.
func pipeSessions(t testing.TB, cliCfg, srvCfg *Config) (cli, srv *Session) {
	t.Helper()
	pn := newPipeNet()
	srvCfg.TLS = &tls13.Config{Certificate: coreCert}
	lst := NewListener(pn, srvCfg)
	acceptCh := make(chan *Session, 1)
	go func() {
		s, _ := lst.Accept()
		acceptCh <- s
	}()
	cliCfg.TLS = &tls13.Config{InsecureSkipVerify: true}
	cli = NewClient(cliCfg, pn)
	if _, err := cli.Connect(netip.Addr{}, netip.AddrPortFrom(sV4, 443), 5*time.Second); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if err := cli.Handshake(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if srv = <-acceptCh; srv == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		if t.Failed() {
			pn.cut() // a session wedged on its transport would hang Close too
		}
		cli.Close()
		srv.Close()
		lst.Close()
	})
	return cli, srv
}

// patterned fills b with bytes that depend on their stream offset and a
// salt, with a period coprime to every record and buffer size in play, so
// data delivered at the wrong offset cannot compare equal.
func patterned(b []byte, salt byte) {
	for i := range b {
		b[i] = byte(i%251) ^ byte(i>>8) ^ salt
	}
}

// TestDuplexBulkBoundedTransport: two sessions each write 8 MiB to the
// other at once over pipes that hold 256 KiB per direction. Each side's
// Stream.Write then spends most of its time blocked in a full transport
// holding the path's write lock, and the only thing that frees it is the
// peer's read loop — which must therefore never wait for that lock to
// send an ack. Before acks were left pending for the lock's holder this
// hung within the first megabyte.
func TestDuplexBulkBoundedTransport(t *testing.T) {
	const total = 8 << 20
	cli, srv := pipeSessions(t, &Config{}, &Config{})
	cst, err := cli.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	// One stream, both directions: the server writes on the stream the
	// client opened.
	if _, err := cst.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	sst, err := srv.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(sst, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 4)
	side := func(st *Stream, sendSalt, wantSalt byte) {
		out := make([]byte, total)
		patterned(out, sendSalt)
		go func() {
			for off := 0; off < total; off += 64 << 10 {
				if _, err := st.Write(out[off : off+64<<10]); err != nil {
					errCh <- fmt.Errorf("write at %d: %w", off, err)
					return
				}
			}
			errCh <- nil
		}()
		go func() {
			want := make([]byte, total)
			patterned(want, wantSalt)
			got := make([]byte, total)
			if _, err := io.ReadFull(st, got); err != nil {
				errCh <- fmt.Errorf("read: %w", err)
				return
			}
			if !bytes.Equal(got, want) {
				errCh <- fmt.Errorf("delivery differs from what the peer wrote")
				return
			}
			errCh <- nil
		}()
	}
	side(cst, 0x11, 0x77)
	side(sst, 0x77, 0x11)

	watchdog := time.After(10 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-watchdog:
			buf := make([]byte, 1<<20)
			t.Fatalf("two-way bulk made no progress for 10 s: deadlock\n%s", buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestPendingControlCoalescesAndFlushes: acks queued while the write lock
// is held collapse to the highest offset per stream, wait for the holder,
// and leave in one control record when it unlocks — a frame queued during
// the hand-off is not stranded.
func TestPendingControlCoalescesAndFlushes(t *testing.T) {
	cli, srv := pipeSessions(t, &Config{}, &Config{})
	pc := cli.primaryPath()
	before := cli.ctr.ctrlSent.Load()

	pc.lockWrite()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for off := uint64(1); off <= 100; off++ {
			pc.queueAck(record.Ack{StreamID: 7, Offset: off}) // must not block
			pc.queueAck(record.Ack{StreamID: 9, Offset: 1000 - off})
		}
		pc.queuePong(record.Pong{Seq: 42})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queueing control frames blocked on the held write lock")
	}
	if got := cli.ctr.ctrlSent.Load() - before; got != 0 {
		t.Fatalf("%d control frames went out past the held write lock", got)
	}
	pc.unlockWrite()
	if got := cli.ctr.ctrlSent.Load() - before; got != 3 {
		t.Fatalf("%d control frames sent on unlock, want 3 (one ack per stream, one pong)", got)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.ctr.ctrlRcvd.Load() >= 3 }, "peer never received the flushed control record")
	if pc.pending.Load() {
		t.Fatal("pending flag still set after the flush")
	}
}

var replaySeed = flag.Int64("replay.seed", 0, "seed for TestReplayRingMatchesModel (0: from the clock)")

// ringPeer is the far end of one path in TestReplayRingMatchesModel: a
// bare TLS connection whose reader hands every stream chunk the session
// gave the record layer to the test, and through which the test acks.
type ringPeer struct {
	tls *tls13.Conn
}

type peerChunk struct {
	path int
	c    record.StreamChunk // Data copied out of the record buffer
}

func (p *ringPeer) ack(t *testing.T, id uint32, off uint64) {
	if err := p.tls.WriteRecordContext(tls13.DefaultContext, record.EncodeControl(record.Ack{StreamID: id, Offset: off})); err != nil {
		t.Errorf("ack: %v", err)
	}
}

func (p *ringPeer) read(path int, out chan<- peerChunk) {
	recs := make([]tls13.InRecord, readBurst)
	for {
		n, err := p.tls.ReadRecordContextBatch(recs)
		for _, r := range recs[:n] {
			tt, content, derr := record.Decode(r.Payload)
			switch {
			case derr != nil:
			case tt == record.TTypeControl:
				frames, _ := record.DecodeControl(content)
				for _, f := range frames {
					if so, ok := f.(record.StreamOpen); ok {
						p.tls.AddStreamContext(so.StreamID)
					}
				}
			case tt == record.TTypeStreamData:
				if c, err := record.DecodeStreamChunk(content); err == nil {
					c.Data = append([]byte(nil), c.Data...)
					out <- peerChunk{path, *c}
				}
			}
			bufpool.Put(r.Payload)
		}
		if err != nil {
			close(out)
			return
		}
	}
}

// ringPath builds one path of the session under test over a bounded pipe:
// a handshaked TLS pair, the client half registered with the session
// (read loop running, so acks arrive), the server half as a ringPeer.
func ringPath(t *testing.T, s *Session) (*pathConn, *ringPeer) {
	t.Helper()
	cp, sp := boundedPipe()
	ctls := tls13.Client(cp, &tls13.Config{InsecureSkipVerify: true})
	stls := tls13.Server(sp, &tls13.Config{Certificate: coreCert})
	errCh := make(chan error, 1)
	go func() { errCh <- stls.Handshake() }()
	if err := ctls.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	pc := newPathConn(s, cp, ctls)
	if err := s.registerPath(pc); err != nil {
		t.Fatal(err)
	}
	return pc, &ringPeer{tls: stls}
}

// TestReplayRingMatchesModel is tcpnet's TestSendPathMatchesModel one
// layer up. A stream writes a long model byte string in random pieces and
// closes; the peer — the test — receives every chunk the session hands
// the record layer, on either of two paths, and answers at random with a
// full ack, an ack that lands inside a chunk, or silence (once, for long
// enough that the writer runs into the replay limit); at random moments
// it has the stream replay its unacked bytes onto the other path, as a
// failover would, racing the acks and the writer. Every chunk, first
// transmission or replay, must carry exactly the model's bytes at its
// offset; reassembled, the stream must be the model, once, in order, with
// the FIN at its end; and when everything is acked the ring must be empty.
func TestReplayRingMatchesModel(t *testing.T) {
	seed := *replaySeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (replay with -replay.seed=%d)", seed, seed)
	rng, writerRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed+1))
	total := 9<<20 + rng.Intn(1<<20)
	if raceEnabled {
		total = 6<<20 + rng.Intn(1<<20)
	}
	model := make([]byte, total)
	rng.Read(model)

	s := newSession(RoleClient, &Config{RecordSize: 700 + rng.Intn(MaxRecordPayload)}, nil)
	defer s.teardown(nil)
	var paths [2]*pathConn
	var peers [2]*ringPeer
	chunks := [2]chan peerChunk{make(chan peerChunk, 64), make(chan peerChunk, 64)}
	for i := range paths {
		paths[i], peers[i] = ringPath(t, s)
		go peers[i].read(i, chunks[i])
	}
	st, err := s.NewStream()
	if err != nil {
		t.Fatal(err)
	}

	writeErr := make(chan error, 1)
	go func() {
		for off := 0; off < total; {
			n := min(1+writerRng.Intn(300<<10), total-off)
			if writerRng.Intn(4) == 0 {
				n = min(1+writerRng.Intn(2000), total-off) // the single-record shape
			}
			if _, err := st.Write(model[off : off+n]); err != nil {
				writeErr <- err
				return
			}
			off += n
		}
		writeErr <- st.Close()
	}()

	// The receiver's reassembly: got marks received bytes, prefix is the
	// in-order frontier an ack may name.
	got := make([]bool, total)
	prefix, finSeen := 0, false
	// Withhold acks from here until the writer is stuck: late enough that
	// the ring has wrapped, early enough that a replay limit's worth is left.
	starve := total/8 + rng.Intn(total/16)
	starving, starved := false, false
	replays, partials, seen := 0, 0, [2]int{}
	deadline := time.After(60 * time.Second)
	for !(prefix == total && finSeen) {
		var pcn peerChunk
		var ok bool
		select {
		case pcn, ok = <-chunks[0]:
		case pcn, ok = <-chunks[1]:
		case <-time.After(20 * time.Millisecond):
			// Quiet: the writer is waiting for acks (or for the test).
			if starving && st.BytesUnacked() >= replayBufferLimit {
				starving, starved = false, true
			}
			if !starving {
				peers[rng.Intn(2)].ack(t, st.id, uint64(prefix))
			}
			continue
		case <-deadline:
			t.Fatalf("stalled at %d of %d (unacked %d)", prefix, total, st.BytesUnacked())
		}
		if !ok {
			t.Fatal("a path died")
		}
		c := pcn.c
		seen[pcn.path]++
		end := int(c.Offset) + len(c.Data)
		if c.StreamID != st.id || end > total || !bytes.Equal(c.Data, model[c.Offset:end]) {
			t.Fatalf("chunk [%d,%d) on path %d differs from the stream's bytes at that offset", c.Offset, end, pcn.path)
		}
		if c.Fin {
			if int(c.Offset) != total || len(c.Data) != 0 {
				t.Fatalf("FIN at %d with %d bytes, want an empty chunk at %d", c.Offset, len(c.Data), total)
			}
			finSeen = true
		}
		for i := int(c.Offset); i < end; i++ {
			got[i] = true
		}
		for prefix < total && got[prefix] {
			prefix++
		}
		if !starved && !starving && prefix >= starve {
			starving = true
		}
		if starving {
			continue
		}
		switch rng.Intn(12) {
		case 0, 1, 2: // cumulative ack of everything in order
			peers[rng.Intn(2)].ack(t, st.id, uint64(prefix))
		case 3, 4: // partial: inside the last chunk or two
			if back := rng.Intn(2 * MaxRecordPayload); prefix > back {
				peers[rng.Intn(2)].ack(t, st.id, uint64(prefix-back))
				partials++
			}
		case 5: // failover replay onto the other path
			if replays < 40 {
				replays++
				to := paths[replays%2]
				go st.replayUnacked(to)
			}
		}
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if !starved {
		t.Error("the writer never ran into the replay limit")
	}
	if replays == 0 || partials == 0 || seen[0] == 0 || seen[1] == 0 {
		t.Errorf("coverage: %d replays, %d partial acks, chunks per path %v", replays, partials, seen)
	}
	// Ack the data, then the FIN: the ring drains and the FIN is released.
	peers[0].ack(t, st.id, uint64(total))
	waitFor(t, 5*time.Second, func() bool { return st.BytesUnacked() == 0 }, "replay ring not drained by the final ack")
	st.mu.Lock()
	finOutstanding := st.finSent && st.ackedTo <= st.sendOffset
	st.mu.Unlock()
	if !finOutstanding {
		t.Fatal("an ack of exactly the final offset released the FIN")
	}
	peers[1].ack(t, st.id, uint64(total)+1)
	waitFor(t, 5*time.Second, func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.ackedTo == uint64(total)+1
	}, "FIN ack not processed")
	t.Logf("%d bytes, record size %d: %d replays, %d partial acks, chunks per path %v", total, s.cfg.RecordSize, replays, partials, seen)
}

// TestStreamWriteSteadyStateAllocs is the alloc gate for the session byte
// path, both sides counted: a 64 KiB Stream.Write through to the peer's
// Stream.Read over the in-memory pipe (the bulk_pipe_64k shape) may cost
// at most one allocation, and a 1 KiB echo round trip at most half of one.
func TestStreamWriteSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	cli, srv := pipeSessions(t, &Config{}, &Config{})
	cst, err := cli.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cst.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	sst, err := srv.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(sst, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}

	// measure runs op n times after a warm-up and returns the process's
	// allocations per op: Mallocs counts every goroutine, so both sides
	// and their read loops are in it.
	measure := func(n int, op func()) float64 {
		for i := 0; i < n/4; i++ {
			op()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(n)
	}

	bulk, sink := make([]byte, 64<<10), make([]byte, 64<<10)
	patterned(bulk, 3)
	perWrite := measure(2000, func() {
		if _, err := cst.Write(bulk); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(sst, sink); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(sink, bulk) {
		t.Fatal("bulk delivery corrupt")
	}
	if perWrite > 1.0 {
		t.Errorf("64 KiB write to read: %.2f allocs per write, want at most 1.0", perWrite)
	}

	req, reply := bulk[:1<<10], make([]byte, 1<<10)
	perEcho := measure(20000, func() {
		if _, err := cst.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(sst, sink[:1<<10]); err != nil {
			t.Fatal(err)
		}
		if _, err := sst.Write(sink[:1<<10]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(cst, reply); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(reply, req) {
		t.Fatal("echo corrupt")
	}
	if perEcho > 0.5 {
		t.Errorf("1 KiB echo: %.2f allocs per round trip, want at most 0.5", perEcho)
	}
	t.Logf("allocs: %.3f per 64 KiB write, %.3f per 1 KiB round trip", perWrite, perEcho)
}

// TestAEADRecordsLeftMetric: the session exports how much of its
// connections' AEAD budget is left, and the figure counts records, not
// failed trial openings.
func TestAEADRecordsLeftMetric(t *testing.T) {
	reg := telemetry.NewRegistry()
	cli, srv := pipeSessions(t, &Config{Metrics: reg}, &Config{})
	name := cli.metricsPrefix() + "aead_records_left"
	left := func() int64 {
		v, ok := reg.Snapshot()[name].(int64)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return v
	}
	if start := left(); start <= 0 || start > tls13.MaxRecordsPerKey {
		t.Fatalf("%s = %d at start", name, start)
	}
	cst, err := cli.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if sst, err := srv.AcceptStream(); err == nil {
			io.Copy(io.Discard, sst)
		}
	}()
	const writes = 200
	for i := 0; i < writes; i++ {
		if _, err := cst.Write([]byte("one record")); err != nil {
			t.Fatal(err)
		}
	}
	// The client's write key has protected 200 data records and one
	// StreamOpen (far more than the tickets it read); the server's read key
	// has opened the same 201, and the tag check that failed on the way —
	// the first stream record is tried under the base context first — is
	// not among them (tls13's TestKeyBudgetSharedAcrossContexts pins that).
	const want = tls13.MaxRecordsPerKey - (writes + 1)
	if got := left(); got != want {
		t.Fatalf("%s = %d after %d writes and a stream open, want %d", name, got, writes, want)
	}
	if got := cli.AEADRecordsLeft(); got != want {
		t.Fatalf("AEADRecordsLeft = %d, metric %d", got, want)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.AEADRecordsLeft() == want }, "server never counted exactly 201 records opened")
}
