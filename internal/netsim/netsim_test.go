package netsim

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/wire"
)

var (
	cAddr  = netip.MustParseAddr("10.0.0.1")
	sAddr  = netip.MustParseAddr("10.0.0.2")
	cAddr6 = netip.MustParseAddr("fc00::1")
	sAddr6 = netip.MustParseAddr("fc00::2")
)

// collector gathers packets delivered to a host.
type collector struct {
	mu   sync.Mutex
	pkts []*wire.Packet
	ch   chan *wire.Packet
}

func newCollector(h *Host, proto uint8) *collector {
	c := &collector{ch: make(chan *wire.Packet, 1024)}
	h.Register(proto, func(p *wire.Packet) {
		q := *p // the header is the link's until the handler returns
		c.mu.Lock()
		c.pkts = append(c.pkts, &q)
		c.mu.Unlock()
		c.ch <- &q
	})
	return c
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pkts)
}

func (c *collector) wait(t *testing.T, n int, d time.Duration) {
	t.Helper()
	deadline := time.After(d)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timeout waiting for packet %d/%d", i+1, n)
		}
	}
}

func tcpPacket(src, dst netip.Addr, seg *wire.Segment) *wire.Packet {
	b, err := seg.Marshal(src, dst)
	if err != nil {
		panic(err)
	}
	return &wire.Packet{Src: src, Dst: dst, Proto: wire.ProtoTCP, TTL: 64, Payload: b}
}

func dataSeg(n int) *wire.Segment {
	return &wire.Segment{SrcPort: 1000, DstPort: 2000, Flags: wire.FlagACK | wire.FlagPSH, Payload: make([]byte, n)}
}

func TestDelivery(t *testing.T) {
	n := New()
	a, b := n.Host("a"), n.Host("b")
	n.AddLink(a, b, cAddr, sAddr, LinkConfig{Delay: time.Millisecond})
	col := newCollector(b, wire.ProtoTCP)
	if err := a.Send(tcpPacket(cAddr, sAddr, dataSeg(10))); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, time.Second)
}

func TestNoRoute(t *testing.T) {
	n := New()
	a := n.Host("a")
	a.AddAddr(cAddr)
	err := a.Send(&wire.Packet{Src: cAddr, Dst: sAddr6, Proto: wire.ProtoTCP})
	if err == nil {
		t.Fatal("expected no-route error")
	}
}

func TestLocalLoopback(t *testing.T) {
	n := New()
	a := n.Host("a")
	a.AddAddr(cAddr)
	col := newCollector(a, wire.ProtoTCP)
	if err := a.Send(tcpPacket(cAddr, cAddr, dataSeg(1))); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, time.Second)
}

func TestPropagationDelay(t *testing.T) {
	n := New()
	a, b := n.Host("a"), n.Host("b")
	n.AddLink(a, b, cAddr, sAddr, LinkConfig{Delay: 50 * time.Millisecond})
	col := newCollector(b, wire.ProtoTCP)
	start := time.Now()
	a.Send(tcpPacket(cAddr, sAddr, dataSeg(1)))
	col.wait(t, 1, time.Second)
	if el := time.Since(start); el < 45*time.Millisecond {
		t.Fatalf("delivered in %s, want >= ~50ms", el)
	}
}

func TestTimeScaleCompressesDelay(t *testing.T) {
	n := New(WithTimeScale(0.1))
	a, b := n.Host("a"), n.Host("b")
	n.AddLink(a, b, cAddr, sAddr, LinkConfig{Delay: 500 * time.Millisecond})
	col := newCollector(b, wire.ProtoTCP)
	start := time.Now()
	a.Send(tcpPacket(cAddr, sAddr, dataSeg(1)))
	col.wait(t, 1, time.Second)
	el := time.Since(start)
	if el > 200*time.Millisecond {
		t.Fatalf("scaled delivery took %s, want ~50ms wall", el)
	}
	if v := n.VirtualSince(start); v < 400*time.Millisecond {
		t.Fatalf("virtual elapsed %s, want >= ~500ms", v)
	}
}

// TestBandwidthPacing sends a burst through a rate-limited link and checks
// the delivery rate is close to the configured bandwidth.
func TestBandwidthPacing(t *testing.T) {
	n := New()
	a, b := n.Host("a"), n.Host("b")
	// 8 Mbps -> 1 MB/s. 50 packets of ~1040B = ~52KB -> ~52ms.
	n.AddLink(a, b, cAddr, sAddr, LinkConfig{BandwidthBps: 8e6, QueueBytes: 1 << 20})
	col := newCollector(b, wire.ProtoTCP)
	const pkts = 50
	start := time.Now()
	for i := 0; i < pkts; i++ {
		a.Send(tcpPacket(cAddr, sAddr, dataSeg(1000)))
	}
	col.wait(t, pkts, 5*time.Second)
	el := time.Since(start)
	if el < 35*time.Millisecond || el > 150*time.Millisecond {
		t.Fatalf("burst drained in %s, want ~52ms", el)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	n := New()
	a, b := n.Host("a"), n.Host("b")
	// Slow link, tiny queue: most of a large burst must be dropped.
	n.AddLink(a, b, cAddr, sAddr, LinkConfig{BandwidthBps: 1e6, QueueBytes: 3000})
	col := newCollector(b, wire.ProtoTCP)
	for i := 0; i < 100; i++ {
		a.Send(tcpPacket(cAddr, sAddr, dataSeg(1000)))
	}
	time.Sleep(300 * time.Millisecond)
	if got := col.count(); got >= 100 || got == 0 {
		t.Fatalf("delivered %d of 100, want partial delivery", got)
	}
}

func TestLossDropsDeterministically(t *testing.T) {
	run := func(seed int64) int {
		n := New(WithSeed(seed))
		a, b := n.Host("a"), n.Host("b")
		n.AddLink(a, b, cAddr, sAddr, LinkConfig{Loss: 0.5})
		col := newCollector(b, wire.ProtoTCP)
		for i := 0; i < 40; i++ {
			a.Send(tcpPacket(cAddr, sAddr, dataSeg(10)))
		}
		time.Sleep(50 * time.Millisecond)
		return col.count()
	}
	const seed = 7
	a1, a2 := run(seed), run(seed)
	if a1 != a2 {
		t.Fatalf("WithSeed(%d): same seed, different outcomes: %d vs %d", seed, a1, a2)
	}
	if a1 == 0 || a1 == 40 {
		t.Fatalf("WithSeed(%d): loss=0.5 delivered %d/40", seed, a1)
	}
}

func TestLinkDown(t *testing.T) {
	n := New()
	a, b := n.Host("a"), n.Host("b")
	l := n.AddLink(a, b, cAddr, sAddr, LinkConfig{})
	col := newCollector(b, wire.ProtoTCP)
	l.SetDown(true)
	a.Send(tcpPacket(cAddr, sAddr, dataSeg(1)))
	time.Sleep(20 * time.Millisecond)
	if col.count() != 0 {
		t.Fatal("packet crossed a down link")
	}
	l.SetDown(false)
	a.Send(tcpPacket(cAddr, sAddr, dataSeg(1)))
	col.wait(t, 1, time.Second)
}

func TestDualStackRouting(t *testing.T) {
	n := New()
	a, b := n.Host("a"), n.Host("b")
	var via4, via6 atomic.Int32
	l4 := n.AddLink(a, b, cAddr, sAddr, LinkConfig{Name: "v4"})
	l6 := n.AddLink(a, b, cAddr6, sAddr6, LinkConfig{Name: "v6"})
	l4.Use(MiddleboxFunc(func(p *wire.Packet, d Direction) ([]*wire.Packet, []*wire.Packet) {
		via4.Add(1)
		return []*wire.Packet{p}, nil
	}))
	l6.Use(MiddleboxFunc(func(p *wire.Packet, d Direction) ([]*wire.Packet, []*wire.Packet) {
		via6.Add(1)
		return []*wire.Packet{p}, nil
	}))
	col := newCollector(b, wire.ProtoTCP)
	a.Send(tcpPacket(cAddr, sAddr, dataSeg(1)))
	a.Send(tcpPacket(cAddr6, sAddr6, dataSeg(1)))
	col.wait(t, 2, time.Second)
	if via4.Load() != 1 || via6.Load() != 1 {
		t.Fatalf("routing wrong: v4=%d v6=%d", via4.Load(), via6.Load())
	}
}

func TestOptionStripper(t *testing.T) {
	n := New()
	a, b := n.Host("a"), n.Host("b")
	strip := &OptionStripper{Kinds: []uint8{wire.OptKindSACKPermitted, wire.OptKindUserTimeout}}
	n.AddLink(a, b, cAddr, sAddr, LinkConfig{}).Use(strip)
	col := newCollector(b, wire.ProtoTCP)
	seg := dataSeg(5)
	seg.Flags |= wire.FlagSYN
	seg.Options = []wire.Option{wire.MSSOption(1460), wire.SACKPermittedOption(), wire.UserTimeoutOption(30 * time.Second)}
	a.Send(tcpPacket(cAddr, sAddr, seg))
	col.wait(t, 1, time.Second)
	got, err := wire.UnmarshalSegment(col.pkts[0].Payload, cAddr, sAddr, true)
	if err != nil {
		t.Fatalf("stripped segment has bad checksum: %v", err)
	}
	if len(got.Options) != 1 || got.Options[0].Kind != wire.OptKindMSS {
		t.Fatalf("surviving options: %v", got.Options)
	}
	if strip.Stripped() != 2 {
		t.Fatalf("Stripped() = %d", strip.Stripped())
	}
}

func TestRSTInjector(t *testing.T) {
	n := New()
	a, b := n.Host("a"), n.Host("b")
	inj := &RSTInjector{AfterSegments: 3, Once: true, BothDirections: true}
	n.AddLink(a, b, cAddr, sAddr, LinkConfig{}).Use(inj)
	colB := newCollector(b, wire.ProtoTCP)
	colA := newCollector(a, wire.ProtoTCP)
	for i := 0; i < 3; i++ {
		a.Send(tcpPacket(cAddr, sAddr, dataSeg(10)))
	}
	colB.wait(t, 4, time.Second) // 3 data + 1 forged RST
	colA.wait(t, 1, time.Second) // reverse RST
	if inj.Fired() != 1 {
		t.Fatalf("Fired() = %d", inj.Fired())
	}
	var sawRST bool
	colB.mu.Lock()
	for _, p := range colB.pkts {
		if seg, err := wire.UnmarshalSegment(p.Payload, p.Src, p.Dst, false); err == nil && seg.Flags.Has(wire.FlagRST) {
			sawRST = true
		}
	}
	colB.mu.Unlock()
	if !sawRST {
		t.Fatal("no RST delivered to receiver")
	}
}

func TestNATRewrites(t *testing.T) {
	n := New()
	a, b := n.Host("a"), n.Host("b")
	public := netip.MustParseAddr("192.0.2.1")
	nat := &NAT{Inside: cAddr, Outside: public, Dir: AtoB}
	n.AddLink(a, b, cAddr, sAddr, LinkConfig{}).Use(nat)
	// Return traffic must reach the private address again: route public->a
	// replies through the same link (b already routes 10.0.0.0/24).
	col := newCollector(b, wire.ProtoTCP)
	a.Send(tcpPacket(cAddr, sAddr, dataSeg(4)))
	col.wait(t, 1, time.Second)
	p := col.pkts[0]
	if p.Src != public {
		t.Fatalf("src not translated: %s", p.Src)
	}
	// Checksum must be valid under the translated pseudo-header.
	if _, err := wire.UnmarshalSegment(p.Payload, p.Src, p.Dst, true); err != nil {
		t.Fatalf("NATed packet checksum: %v", err)
	}
}

func TestManglerCorruptsKeepingChecksumValid(t *testing.T) {
	n := New()
	a, b := n.Host("a"), n.Host("b")
	n.AddLink(a, b, cAddr, sAddr, LinkConfig{}).Use(&Mangler{EveryN: 1})
	col := newCollector(b, wire.ProtoTCP)
	seg := dataSeg(8)
	for i := range seg.Payload {
		seg.Payload[i] = 0xAA
	}
	a.Send(tcpPacket(cAddr, sAddr, seg))
	col.wait(t, 1, time.Second)
	got, err := wire.UnmarshalSegment(col.pkts[0].Payload, cAddr, sAddr, true)
	if err != nil {
		t.Fatalf("mangled packet should still checksum: %v", err)
	}
	same := true
	for _, x := range got.Payload {
		if x != 0xAA {
			same = false
		}
	}
	if same {
		t.Fatal("payload not corrupted")
	}
}

func TestSYNOptionEcho(t *testing.T) {
	n := New()
	a, b := n.Host("a"), n.Host("b")
	echo := &SYNOptionEcho{}
	n.AddLink(a, b, cAddr, sAddr, LinkConfig{}).Use(echo)
	col := newCollector(b, wire.ProtoTCP)
	seg := &wire.Segment{Flags: wire.FlagSYN, Options: []wire.Option{wire.MSSOption(1400)}}
	a.Send(tcpPacket(cAddr, sAddr, seg))
	col.wait(t, 1, time.Second)
	opts := echo.LastSYNOptions()
	if len(opts) != 1 {
		t.Fatalf("echo saw %d options", len(opts))
	}
	if mss, ok := opts[0].MSS(); !ok || mss != 1400 {
		t.Fatal("echo option mismatch")
	}
}

func TestTraceEvents(t *testing.T) {
	var mu sync.Mutex
	var kinds []string
	n := New(WithTrace(func(e TraceEvent) {
		mu.Lock()
		kinds = append(kinds, e.Kind)
		mu.Unlock()
		_ = e.String()
	}))
	a, b := n.Host("a"), n.Host("b")
	n.AddLink(a, b, cAddr, sAddr, LinkConfig{})
	col := newCollector(b, wire.ProtoTCP)
	a.Send(tcpPacket(cAddr, sAddr, dataSeg(1)))
	col.wait(t, 1, time.Second)
	mu.Lock()
	defer mu.Unlock()
	haveSend, haveRecv := false, false
	for _, k := range kinds {
		if k == "send" {
			haveSend = true
		}
		if k == "recv" {
			haveRecv = true
		}
	}
	if !haveSend || !haveRecv {
		t.Fatalf("trace kinds: %v", kinds)
	}
}

func TestHostIdentityAndAddrs(t *testing.T) {
	n := New()
	a := n.Host("a")
	if n.Host("a") != a {
		t.Fatal("Host not idempotent")
	}
	a.AddAddr(cAddr)
	a.AddAddr(cAddr) // duplicate ignored
	if len(a.Addrs()) != 1 {
		t.Fatal("duplicate addr added")
	}
	if !a.HasAddr(cAddr) || a.HasAddr(sAddr) {
		t.Fatal("HasAddr wrong")
	}
	if a.Name() != "a" || a.Network() != n {
		t.Fatal("identity accessors")
	}
}

func TestLongestPrefixRouting(t *testing.T) {
	n := New()
	a, b, c := n.Host("a"), n.Host("b"), n.Host("c")
	// Default route via b, specific /32 via c.
	lb := n.AddLink(a, b, netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("10.1.0.2"), LinkConfig{})
	lc := n.AddLink(a, c, netip.MustParseAddr("10.2.0.1"), netip.MustParseAddr("10.2.0.2"), LinkConfig{})
	a.AddRoute(netip.MustParsePrefix("0.0.0.0/0"), lb.EndA())
	a.AddRoute(netip.MustParsePrefix("203.0.113.7/32"), lc.EndA())
	c.AddAddr(netip.MustParseAddr("203.0.113.7"))
	b.AddAddr(netip.MustParseAddr("203.0.113.8"))
	colC := newCollector(c, wire.ProtoTCP)
	colB := newCollector(b, wire.ProtoTCP)
	a.Send(tcpPacket(cAddr, netip.MustParseAddr("203.0.113.7"), dataSeg(1)))
	a.Send(tcpPacket(cAddr, netip.MustParseAddr("203.0.113.8"), dataSeg(1)))
	colC.wait(t, 1, time.Second)
	colB.wait(t, 1, time.Second)
}
