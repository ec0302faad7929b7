package tcpnet

// Tests for the per-segment path: the send path against a byte-slice
// model, byte-exact delivery through loss and reordering with the pooled
// buffers accounted for, seeded reproducibility of the segments a stack
// emits, and the allocation bound and benchmark of a bulk transfer.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/netsim"
	"github.com/pluginized-protocols/gotcpls/internal/wire"
)

var segpathSeed = flag.Int64("segpath.seed", 0, "seed for the randomized segment-path tests (0: from the clock)")

// testSeed returns the seed for a randomized test and logs it, so a
// failure can be replayed with -segpath.seed.
func testSeed(t *testing.T) int64 {
	seed := *segpathSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (replay with -segpath.seed=%d)", seed, seed)
	return seed
}

// TestSendPathMatchesModel is bytering's TestRingMatchesModel one level up: a raw peer
// acknowledges a connection's stream at random — in full, partially (inside
// a segment), selectively around segments it pretends were lost, or not at
// all until the retransmission timer fires — while the connection's send
// buffer, bounded well below the stream length, wraps again and again.
// Every payload the stack transmits, first transmission or go-back-N or
// SACK-hole retransmission, must be exactly the bytes of the written
// stream at that sequence number.
func TestSendPathMatchesModel(t *testing.T) {
	seed := testSeed(t)
	rng, writerRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed+1))
	const total = 160 << 10
	// Three and a bit times the ring's smallest array: it grows twice, then wraps.
	h := newScriptHarness(t, Config{SendBuf: 3*(4<<10) + 1000})
	h.run(handshakeSteps())

	model := make([]byte, total)
	rng.Read(model)
	writeErr := make(chan error, 1)
	go func() {
		for off := 0; off < total; {
			n := min(1+writerRng.Intn(9000), total-off)
			if _, err := h.conn.Write(model[off : off+n]); err != nil {
				writeErr <- err
				return
			}
			off += n
		}
		writeErr <- nil
	}()

	// got marks the stream bytes the peer has "received"; acked is the
	// cumulative ACK it last sent.
	got := make([]bool, total)
	acked := 0
	prefix := func() int {
		n := acked
		for n < total && got[n] {
			n++
		}
		return n
	}
	ack := func(upTo int) {
		var opts []wire.Option
		var blocks []wire.SACKBlock
		for i := upTo; i < total && len(blocks) < 3; {
			if !got[i] {
				i++
				continue
			}
			j := i
			for j < total && got[j] {
				j++
			}
			blocks = append(blocks, wire.SACKBlock{Left: h.iss + 1 + uint32(i), Right: h.iss + 1 + uint32(j)})
			i = j
		}
		if len(blocks) > 0 {
			opts = append(opts, wire.SACKOption(blocks))
		}
		buf, err := h.seg(wire.FlagACK, scriptPeerISS+1, h.iss+1+uint32(upTo), 0, opts...).Marshal(clientAddr, serverAddr)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.peer.Send(&wire.Packet{Src: clientAddr, Dst: serverAddr, Proto: wire.ProtoTCP, TTL: 64, Payload: buf}); err != nil {
			t.Fatal(err)
		}
		acked = upTo
	}

	segments, retransmitted := 0, 0
	deadline := time.After(60 * time.Second)
	for acked < total {
		var c capture
		select {
		case c = <-h.out:
		case <-deadline:
			t.Fatalf("stalled with %d of %d bytes acknowledged (%d segments seen): %+v", acked, total, segments, h.conn.Info())
		}
		if len(c.seg.Payload) == 0 {
			continue
		}
		segments++
		off := int(c.seg.Seq - (h.iss + 1))
		if off < 0 || off+len(c.seg.Payload) > total {
			t.Fatalf("segment [%d,+%d) outside the written stream", off, len(c.seg.Payload))
		}
		if !bytes.Equal(c.seg.Payload, model[off:off+len(c.seg.Payload)]) {
			t.Fatalf("segment %d at stream offset %d (+%d) does not carry the written bytes", segments, off, len(c.seg.Payload))
		}
		if got[off] {
			retransmitted++
		}
		if rng.Intn(100) < 6 {
			continue // lost on the way to the peer: no trace of it
		}
		for i := range c.seg.Payload {
			got[off+i] = true
		}
		p := prefix()
		switch r := rng.Intn(100); {
		case r < 8:
			// The ACK is lost: the sender finds out by probe or timeout.
		case r < 30 && p > acked+1:
			ack(acked + 1 + rng.Intn(p-acked-1)) // partial: inside what arrived
		default:
			ack(p)
		}
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("write: %v", err)
	}
	st := h.conn.Info().Stats
	t.Logf("%d segments, %d repeats; stack: %d retransmits, %d fast, %d timeouts",
		segments, retransmitted, st.Retransmits, st.FastRetransmits, st.Timeouts)
	if st.Retransmits == 0 || st.FastRetransmits == 0 {
		t.Errorf("recovery paths not exercised: %+v", st)
	}
	if st.ChallengeAcks != 0 {
		// The peer only acknowledges bytes it was sent. (A SACK-hole
		// retransmission that ran past sndNxt into unsent data once made
		// such an ACK look like one for data never sent.)
		t.Errorf("%d of the peer's ACKs were challenged", st.ChallengeAcks)
	}
}

// TestBulkLossReorderByteExact moves a stream between two stacks over a
// link that drops 2 % of packets, first on its own (pooled buffers end to
// end: burst delivery, the reassembly queue, deferred ACKs) and then with a
// reorder injector, and requires byte-exact delivery and every pooled
// buffer back in the pool. Run under -race it is the concurrency check of
// the whole segment path.
func TestBulkLossReorderByteExact(t *testing.T) {
	for _, reorder := range []bool{false, true} {
		t.Run(fmt.Sprintf("reorder=%v", reorder), func(t *testing.T) {
			seed := testSeed(t)
			lc := bufpool.StartLeakCheck()
			defer lc.Stop()
			e := env(t, netsim.LinkConfig{BandwidthBps: 200e6, Delay: 500 * time.Microsecond, Loss: 0.02},
				Config{}, netsim.WithSeed(seed))
			defer e.net.Close()
			var ro *netsim.Reorderer
			if reorder {
				ro = &netsim.Reorderer{EveryN: 7}
				e.link.Use(ro)
			}
			c, s := e.connect(t)
			transfer(t, c, s, 2<<20, 60*time.Second)
			s.Close()
			if st := e.link.Stats(); st.DropLoss == 0 {
				t.Errorf("no packet was dropped: %+v", st)
			}
			if inf := c.Info(); inf.Stats.Retransmits == 0 {
				t.Errorf("no retransmission on a lossy link: %+v", inf.Stats)
			}
			if reorder && ro.Swapped() == 0 {
				t.Error("the reorder injector never fired")
			}
			// Both ends closed: once the FIN exchange has drained, nothing
			// may still hold a pooled buffer.
			deadline := time.Now().Add(10 * time.Second)
			for lc.Outstanding() != 0 {
				if time.Now().After(deadline) {
					gets, puts := lc.Stats()
					t.Fatalf("%d pooled buffers never returned (gets=%d puts=%d)", lc.Outstanding(), gets, puts)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestStackSeedReproducible: two networks built with the same seed emit
// identical SYNs — sequence numbers and ports — and a different seed moves
// the sequence numbers.
func TestStackSeedReproducible(t *testing.T) {
	syns := func(seed int64) []string {
		var mu sync.Mutex
		var out []string
		e := env(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{}, netsim.WithSeed(seed),
			netsim.WithTrace(func(ev netsim.TraceEvent) {
				if ev.Kind != "send" {
					return
				}
				seg, err := wire.UnmarshalSegment(ev.Packet.Payload, ev.Packet.Src, ev.Packet.Dst, true)
				if err == nil && seg.Flags.Has(wire.FlagSYN) {
					mu.Lock()
					out = append(out, fmt.Sprintf("%d>%d %s seq=%d", seg.SrcPort, seg.DstPort, seg.Flags, seg.Seq))
					mu.Unlock()
				}
			}))
		defer e.net.Close()
		for i := 0; i < 3; i++ {
			c, s := e.connect(t)
			c.Abort()
			s.Abort()
		}
		mu.Lock()
		defer mu.Unlock()
		return out
	}
	a, b, other := syns(42), syns(42), syns(43)
	if len(a) != 6 {
		t.Fatalf("want 3 SYNs and 3 SYN-ACKs, got %q", a)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different SYNs:\n%q\n%q", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(other) {
		t.Fatalf("seeds 42 and 43 produced the same SYNs: %q", a)
	}
}

// bulkPair is two stacks on a zero-delay, infinite-bandwidth link with one
// established connection: wall time over it is CPU cost, not emulated delay.
type bulkPair struct {
	net            *netsim.Network
	client, server *Stack
	c, s           *Conn
	block          []byte
}

func newBulkPair(tb testing.TB) *bulkPair {
	n := netsim.New(netsim.WithSeed(1))
	ch, sh := n.Host("client"), n.Host("server")
	n.AddLink(ch, sh, clientAddr, serverAddr, netsim.LinkConfig{})
	p := &bulkPair{net: n, client: NewStack(ch, Config{}), server: NewStack(sh, Config{}), block: make([]byte, 64<<10)}
	tb.Cleanup(func() { p.client.Close(); p.server.Close(); n.Close() })
	lst, err := p.server.Listen(netip.Addr{}, 443)
	if err != nil {
		tb.Fatal(err)
	}
	accepted := make(chan *Conn, 1)
	go func() {
		if c, err := lst.AcceptTCP(); err == nil {
			accepted <- c
		}
	}()
	if p.c, err = p.client.Dial(netip.Addr{}, netip.AddrPortFrom(serverAddr, 443), 5*time.Second); err != nil {
		tb.Fatal(err)
	}
	p.s = <-accepted
	rand.New(rand.NewSource(1)).Read(p.block)
	return p
}

// transfer writes n blocks at the client and reads them at the server.
func (p *bulkPair) transfer(tb testing.TB, n int) {
	done := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, p.s, int64(n*len(p.block)))
		done <- err
	}()
	for i := 0; i < n; i++ {
		if _, err := p.c.Write(p.block); err != nil {
			tb.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		tb.Fatal(err)
	}
}

func (p *bulkPair) segsSent() uint64 {
	return p.client.Stats().SegsSent + p.server.Stats().SegsSent
}

// TestTCPNetBulkAllocsPerSegment is the alloc gate of the segment path: in
// steady state a data segment and its ACK cross wire, tcpnet and netsim
// without a heap allocation. The bound leaves room for what is per
// transfer, not per segment (the reader goroutine, timer churn).
func TestTCPNetBulkAllocsPerSegment(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	p := newBulkPair(t)
	p.transfer(t, 32) // open the congestion window, size the buffers, fill the pools
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := p.segsSent()
	p.transfer(t, 256)
	runtime.ReadMemStats(&m1)
	segs := p.segsSent() - s0
	perSeg := float64(m1.Mallocs-m0.Mallocs) / float64(segs)
	t.Logf("%d allocations over %d segments: %.4f per segment", m1.Mallocs-m0.Mallocs, segs, perSeg)
	if perSeg > 0.25 {
		t.Fatalf("%.3f allocations per segment, want at most 0.25", perSeg)
	}
}

// BenchmarkTCPNetBulk is the tcpnet row of the layer ledger: 64 KiB writes
// over a raw connection pair, no TLS above it.
func BenchmarkTCPNetBulk(b *testing.B) {
	p := newBulkPair(b)
	p.transfer(b, 32)
	b.SetBytes(int64(len(p.block)))
	b.ReportAllocs()
	b.ResetTimer()
	p.transfer(b, b.N)
}

// TestBurstDeliveryAckRule hands the stack hand-built batches, as the
// link does when several segments are due together, and checks what comes
// back: a run of plain in-order segments is acknowledged once, cumulatively;
// anything else in the run is acknowledged at once; a run whose last
// segment is dropped still gets its ACK; a segment alone behaves as ever.
func TestBurstDeliveryAckRule(t *testing.T) {
	h := newScriptHarness(t, Config{})
	h.run(handshakeSteps())
	const n = 500
	next := uint32(scriptPeerISS + 1) // the peer's next sequence number
	data := func(seq uint32, flags wire.Flags) *wire.Packet {
		buf, err := h.seg(wire.FlagACK|flags, seq, h.iss+1, n).Marshal(clientAddr, serverAddr)
		if err != nil {
			t.Fatal(err)
		}
		return &wire.Packet{Src: clientAddr, Dst: serverAddr, Proto: wire.ProtoTCP, TTL: 64, Payload: buf}
	}
	// expectAcks collects the ACK numbers of exactly want pure ACKs and
	// requires silence after them.
	expectAcks := func(name string, want ...uint32) {
		t.Helper()
		for i, w := range want {
			select {
			case c := <-h.out:
				if len(c.seg.Payload) != 0 || c.seg.Ack != w {
					t.Fatalf("%s: ACK %d of %d is %s, want a pure ACK of %d", name, i+1, len(want), c.seg, w)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("%s: ACK %d of %d never came", name, i+1, len(want))
			}
		}
		select {
		case c := <-h.out:
			t.Fatalf("%s: unexpected extra segment %s", name, c.seg)
		case <-time.After(50 * time.Millisecond):
		}
	}

	h.stack.input([]*wire.Packet{data(next, 0)})
	next += n
	expectAcks("a segment alone", next)

	h.stack.input([]*wire.Packet{data(next, 0), data(next+n, 0), data(next+2*n, 0), data(next+3*n, 0)})
	next += 4 * n
	expectAcks("four in order", next)

	// In order, then a gap: the out-of-order segment acknowledges at once
	// (covering its predecessor), and so does the one that follows it.
	h.stack.input([]*wire.Packet{data(next, 0), data(next+2*n, 0), data(next+3*n, 0)})
	expectAcks("a gap mid-run", next+n, next+n)
	h.stack.input([]*wire.Packet{data(next+n, 0)})
	next += 4 * n
	expectAcks("the gap filled", next)

	// The run's last segment fails its checksum: the deferred ACK still goes.
	bad := data(next+2*n, 0)
	bad.Payload[len(bad.Payload)-1] ^= 0xff
	h.stack.input([]*wire.Packet{data(next, 0), data(next+n, 0), bad})
	next += 2 * n
	expectAcks("a corrupt tail", next)

	// All of it reached the reader, who was woken.
	got := make([]byte, 11*n)
	h.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(h.conn, got); err != nil {
		t.Fatalf("read: %v", err)
	}

	// A FIN never waits: data and FIN in one run, acknowledged together
	// by the FIN's own ACK.
	h.stack.input([]*wire.Packet{data(next, 0), data(next+n, wire.FlagFIN)})
	next += 2*n + 1
	expectAcks("data then FIN", next)
}
