package netsim

import (
	"net/netip"
	"testing"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/wire"
)

// TestMiddleboxChainReleasesPooledBuffers audits bufpool ownership on the
// middlebox rewrite path: every packet entering a chain with a pooled
// payload must have that payload returned to the pool whether the chain
// forwards it (possibly rewritten), drops it, or injects extra packets.
// The receiving handler owns delivered payloads and Puts them, so at
// drain the outstanding count must be zero.
func TestMiddleboxChainReleasesPooledBuffers(t *testing.T) {
	lc := bufpool.StartLeakCheck()
	defer lc.Stop()

	n := New(WithSeed(11))
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	public := netip.MustParseAddr("10.0.0.77")
	link := n.AddLink(a, b, cAddr, sAddr, LinkConfig{Delay: time.Millisecond})
	// A realistic gauntlet: strip options, NAT-translate, then firewall.
	// The firewall drops anything that is not part of a SYN-initiated
	// flow, exercising the drop path's buffer ownership too.
	link.Use(
		&OptionStripper{Kinds: []uint8{wire.OptKindSACKPermitted}},
		&StatefulNAT{Inside: cAddr, Outside: public, Dir: AtoB, Net: n, Seed: 11},
		&StatefulFirewall{Inside: AtoB, RSTOnEvict: true},
	)

	got := make(chan struct{}, 64)
	// Handlers own the payloads they are handed; for GC-backed rewritten
	// clones the Put is a no-op foreign Put, for pooled buffers it is the
	// release the leak check demands.
	b.Register(wire.ProtoTCP, func(p *wire.Packet) {
		bufpool.Put(p.Payload)
		got <- struct{}{}
	})
	a.Register(wire.ProtoTCP, func(p *wire.Packet) {
		bufpool.Put(p.Payload)
	})

	send := func(seg *wire.Segment) {
		raw, err := seg.Marshal(cAddr, sAddr)
		if err != nil {
			t.Fatal(err)
		}
		// Pooled payload: ownership transfers to the network on Send.
		payload := bufpool.Get(len(raw))
		copy(payload, raw)
		if err := a.Send(&wire.Packet{Src: cAddr, Dst: sAddr, Proto: wire.ProtoTCP, TTL: 64, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}

	// SYN passes (creates firewall state), data passes, and a packet from
	// an unknown flow is dropped by the firewall (plus a forged RST back).
	send(&wire.Segment{SrcPort: 1000, DstPort: 443, Flags: wire.FlagSYN,
		Options: []wire.Option{wire.MSSOption(1460), wire.SACKPermittedOption()}})
	send(&wire.Segment{SrcPort: 1000, DstPort: 443, Seq: 1, Flags: wire.FlagACK, Payload: []byte("payload")})
	send(&wire.Segment{SrcPort: 2000, DstPort: 443, Seq: 1, Flags: wire.FlagACK, Payload: []byte("dropped")})

	for i := 0; i < 2; i++ {
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("timeout waiting for delivery %d/2", i+1)
		}
	}
	// Let the dropped packet and reverse RST finish traversing.
	time.Sleep(50 * time.Millisecond)

	if out := lc.Outstanding(); out != 0 {
		gets, puts := lc.Stats()
		t.Fatalf("middlebox chain leaked %d pooled buffers (gets=%d puts=%d)", out, gets, puts)
	}
}
