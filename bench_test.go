package tcpls_test

// Benchmark harness: one benchmark per table/figure of the paper plus
// the ablations called out in DESIGN.md. Benchmarks run scaled-down
// workloads on the emulated network and report *virtual-time* metrics
// (goodput in Mbps, latencies in virtual milliseconds) via
// b.ReportMetric, since wall-clock ns/op measures the emulator, not the
// protocol. EXPERIMENTS.md records representative outputs against the
// paper's claims.

import (
	"crypto/rand"
	"fmt"
	"io"
	"net/netip"
	"testing"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/cc"
	"github.com/pluginized-protocols/gotcpls/internal/core"
	"github.com/pluginized-protocols/gotcpls/internal/ebpfvm"
	"github.com/pluginized-protocols/gotcpls/internal/labs"
	"github.com/pluginized-protocols/gotcpls/internal/netsim"
	"github.com/pluginized-protocols/gotcpls/internal/quicbase"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
	"github.com/pluginized-protocols/gotcpls/internal/wire"
)

// benchCert is shared across benchmarks (ECDSA keygen is not the thing
// under test).
var benchCert *tls13.Certificate

func init() {
	var err error
	benchCert, err = tls13.GenerateSelfSigned("bench", nil, nil)
	if err != nil {
		panic(err)
	}
}

// download runs the canonical download workload and returns (bytes,
// virtual duration).
func download(b *testing.B, tb *labs.Testbed, cfg *core.Config, size int,
	during func(cli *core.Session, progressed <-chan int64)) (int64, time.Duration) {
	b.Helper()
	cli, srv, err := tb.ConnectClient(cfg)
	if err != nil {
		b.Fatal(err)
	}
	labs.ServeDownload(srv, size)
	req, _ := cli.NewStream()
	req.Write([]byte("GET"))
	req.Close()
	down, err := cli.AcceptStream()
	if err != nil {
		b.Fatal(err)
	}
	progress := make(chan int64, 64)
	if during != nil {
		go during(cli, progress)
	}
	start := time.Now()
	var total int64
	buf := make([]byte, 64<<10)
	for {
		n, err := down.Read(buf)
		total += int64(n)
		select {
		case progress <- total:
		default:
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatalf("download: %v", err)
		}
	}
	return total, tb.Net.VirtualSince(start)
}

func mbps(bytes int64, d time.Duration) float64 {
	return float64(bytes) * 8 / d.Seconds() / 1e6
}

// BenchmarkFigure4Migration reproduces Figure 4 at reduced size: a
// download over two 30 Mbps paths with an application-level migration
// at the midpoint. Metrics: goodput_mbps (whole transfer, should sit
// near the link rate) and the completion fact itself (a TLS/TCP
// baseline dies — see cmd/tcpls-migrate -baseline).
func BenchmarkFigure4Migration(b *testing.B) {
	const size = 6 << 20
	for i := 0; i < b.N; i++ {
		tb, err := labs.NewTestbed(labs.TestbedConfig{
			V4:        netsim.LinkConfig{BandwidthBps: 30e6, Delay: 10 * time.Millisecond},
			V6:        netsim.LinkConfig{BandwidthBps: 30e6, Delay: 15 * time.Millisecond},
			TimeScale: 0.25,
			Seed:      int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		total, el := download(b, tb, &core.Config{}, size, func(cli *core.Session, progress <-chan int64) {
			for p := range progress {
				if p >= size/2 {
					v4 := cli.PathIDs()[0]
					if _, err := cli.Connect(labs.ClientV6, netip.AddrPortFrom(labs.ServerV6, labs.Port), 5*time.Second); err == nil {
						cli.ClosePath(v4)
					}
					return
				}
			}
		})
		b.ReportMetric(mbps(total, el), "goodput_mbps")
		tb.Close()
	}
}

// BenchmarkA1RecordSizing compares fixed-size records against
// cwnd-matched records (§4.6: avoid fragmented records by matching the
// record to the congestion window).
func BenchmarkA1RecordSizing(b *testing.B) {
	const size = 4 << 20
	run := func(b *testing.B, cfg *core.Config, label string) {
		for i := 0; i < b.N; i++ {
			tb, err := labs.NewTestbed(labs.TestbedConfig{
				V4:        netsim.LinkConfig{BandwidthBps: 50e6, Delay: 5 * time.Millisecond},
				V6:        netsim.LinkConfig{Delay: 5 * time.Millisecond},
				TimeScale: 0.5,
				Seed:      int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			total, el := download(b, tb, cfg, size, nil)
			b.ReportMetric(mbps(total, el), "goodput_mbps")
			tb.Close()
		}
	}
	b.Run("fixed-1400", func(b *testing.B) { run(b, &core.Config{RecordSize: 1400}, "fixed") })
	b.Run("fixed-16k", func(b *testing.B) { run(b, &core.Config{RecordSize: 16000}, "fixed16k") })
	b.Run("cwnd-matched", func(b *testing.B) { run(b, &core.Config{}, "cwnd") })
}

// BenchmarkA2Failover measures the stall a forged mid-transfer RST
// causes under TCPLS failover, vs. restarting a TLS/TCP transfer from
// scratch (the only option without connection reliability).
func BenchmarkA2Failover(b *testing.B) {
	const size = 3 << 20
	for i := 0; i < b.N; i++ {
		tb, err := labs.NewTestbed(labs.TestbedConfig{
			V4:        netsim.LinkConfig{BandwidthBps: 50e6, Delay: 5 * time.Millisecond},
			V6:        netsim.LinkConfig{BandwidthBps: 50e6, Delay: 8 * time.Millisecond},
			TimeScale: 0.5,
			Seed:      int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		tb.LinkV4.Use(&netsim.RSTInjector{AfterSegments: 200, Once: true, BothDirections: true})
		cli, srv, err := tb.ConnectClient(&core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		labs.ServeDownload(srv, size)
		req, _ := cli.NewStream()
		req.Write([]byte("GET"))
		req.Close()
		down, err := cli.AcceptStream()
		if err != nil {
			b.Fatal(err)
		}
		var maxGap time.Duration
		last := time.Now()
		buf := make([]byte, 64<<10)
		var total int64
		for {
			n, err := down.Read(buf)
			if gap := time.Since(last); gap > maxGap {
				maxGap = gap
			}
			last = time.Now()
			total += int64(n)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatalf("failover transfer died: %v", err)
			}
		}
		if total != size {
			b.Fatalf("lost bytes: %d of %d", total, size)
		}
		virtGap := time.Duration(float64(maxGap) / 0.5)
		b.ReportMetric(float64(virtGap.Milliseconds()), "stall_ms")
		tb.Close()
	}
}

// BenchmarkA3Aggregation compares one path against two aggregated paths
// (§2.4): the aggregate goodput should approach the sum of the rates.
func BenchmarkA3Aggregation(b *testing.B) {
	const size = 4 << 20
	run := func(b *testing.B, twoPaths bool) {
		for i := 0; i < b.N; i++ {
			tb, err := labs.NewTestbed(labs.TestbedConfig{
				V4:        netsim.LinkConfig{BandwidthBps: 20e6, Delay: 5 * time.Millisecond},
				V6:        netsim.LinkConfig{BandwidthBps: 20e6, Delay: 8 * time.Millisecond},
				TimeScale: 0.5,
				Seed:      int64(i + 1),
				Server:    &core.Config{Multipath: true, Mode: core.ModeAggregate},
			})
			if err != nil {
				b.Fatal(err)
			}
			cfg := &core.Config{Multipath: true, Mode: core.ModeAggregate}
			cli, srv, err := tb.ConnectClient(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if twoPaths {
				if _, err := cli.Connect(labs.ClientV6, netip.AddrPortFrom(labs.ServerV6, labs.Port), 5*time.Second); err != nil {
					b.Fatal(err)
				}
			}
			labs.ServeDownload(srv, size)
			req, _ := cli.NewStream()
			req.Write([]byte("GET"))
			req.Close()
			down, err := cli.AcceptStream()
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			n, err := io.Copy(io.Discard, down)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(mbps(n, tb.Net.VirtualSince(start)), "goodput_mbps")
			tb.Close()
		}
	}
	b.Run("one-path-20mbps", func(b *testing.B) { run(b, false) })
	b.Run("two-paths-2x20mbps", func(b *testing.B) { run(b, true) })
}

// a4Pair is a handshaked TLS pair with stream contexts 1..nctx on both ends.
func a4Pair(b *testing.B, nctx int) (client, server *tls13.Conn) {
	cp, sp := newBufferedPipe()
	client = tls13.Client(cp, &tls13.Config{InsecureSkipVerify: true})
	server = tls13.Server(sp, &tls13.Config{Certificate: benchCert})
	errCh := make(chan error, 1)
	go func() { errCh <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		b.Fatal(err)
	}
	if err := <-errCh; err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= nctx; i++ {
		if err := client.AddStreamContext(uint32(i)); err != nil {
			b.Fatal(err)
		}
		if err := server.AddStreamContext(uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	return client, server
}

// BenchmarkA4StreamTrialDecrypt measures the receiver-side cost of the
// per-stream crypto contexts (§2.3): the record's stream is found by
// trying AEAD tags, so a change of stream costs more the larger the
// candidate set. (A record from the same stream as the one before it is
// opened at the first try, whatever the set: that is the "steady" row.)
func BenchmarkA4StreamTrialDecrypt(b *testing.B) {
	for _, nctx := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("contexts-%d", nctx), func(b *testing.B) {
			client, server := a4Pair(b, nctx)
			payload := make([]byte, 1400)
			rand.Read(payload)
			// The worst case: records alternate between the two
			// last-attached streams (the last one and the control channel
			// when there is only one), so none is opened by the context
			// that opened the one before it and every earlier context is
			// tried first: nctx failed tag checks per record.
			worst := [2]uint32{uint32(nctx), uint32(nctx - 1)}
			if nctx == 1 {
				worst[1] = tls13.DefaultContext
			}
			pingPong(b, client, server, payload, func(i int) uint32 { return worst[i%2] })
		})
	}
	b.Run("contexts-8-steady", func(b *testing.B) {
		client, server := a4Pair(b, 8)
		pingPong(b, client, server, make([]byte, 1400), func(int) uint32 { return 8 })
	})
}

// pingPong writes one record under ctx(i) and reads it back, b.N times.
func pingPong(b *testing.B, client, server *tls13.Conn, payload []byte, ctx func(i int) uint32) {
	b.ResetTimer()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if err := client.WriteRecordContext(ctx(i), payload); err != nil {
			b.Fatal(err)
		}
		id, p, err := server.ReadRecordContext()
		if err != nil || id != ctx(i) {
			b.Fatalf("ctx %d err %v", id, err)
		}
		bufpool.Put(p)
	}
}

// BenchmarkA5OptionSpace contrasts TCP's 40-byte option ceiling with the
// TCPLS secure channel: the largest User-Timeout-style option packable
// into a TCP header vs. a large option in one encrypted record.
func BenchmarkA5OptionSpace(b *testing.B) {
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	b.Run("tcp-header-40-bytes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The realistic full house: MSS + wscale + sackOK + timestamps
			// leaves 17 bytes for everything else, forever.
			seg := &wire.Segment{
				Options: []wire.Option{
					wire.MSSOption(1460),
					wire.WindowScaleOption(7),
					wire.SACKPermittedOption(),
					wire.TimestampsOption(1, 2),
				},
			}
			if _, err := seg.Marshal(src, dst); err != nil {
				b.Fatal(err)
			}
			// One more modest option cannot fit.
			seg.Options = append(seg.Options, wire.Option{Kind: 254, Data: make([]byte, 24)})
			if _, err := seg.Marshal(src, dst); err == nil {
				b.Fatal("40-byte ceiling did not bind")
			}
			b.ReportMetric(40, "option_space_bytes")
		}
	})
	b.Run("tcpls-record", func(b *testing.B) {
		cp, sp := newBufferedPipe()
		client := tls13.Client(cp, &tls13.Config{InsecureSkipVerify: true})
		server := tls13.Server(sp, &tls13.Config{Certificate: benchCert})
		go server.Handshake()
		if err := client.Handshake(); err != nil {
			b.Fatal(err)
		}
		big := make([]byte, 8<<10) // an 8 KB option: unthinkable in a TCP header
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.WriteRecordContext(tls13.DefaultContext, big); err != nil {
				b.Fatal(err)
			}
			if _, _, err := server.ReadRecordContext(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(big)), "option_space_bytes")
		}
	})
}

// BenchmarkA6HandshakeRTTs measures connection-establishment latency in
// virtual time on a 20 ms RTT path: TCPLS full handshake (TCP + TLS),
// TCPLS resumption, 0-RTT first-byte delivery, and the quicbase
// comparator (§4.2's "0-RTT TCPLS would catch up to QUIC").
func BenchmarkA6HandshakeRTTs(b *testing.B) {
	link := netsim.LinkConfig{Delay: 10 * time.Millisecond} // 20 ms RTT
	b.Run("tcpls-full-1rtt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tb, err := labs.NewTestbed(labs.TestbedConfig{V4: link, V6: link})
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			_, _, err = tb.ConnectClient(&core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(tb.Net.VirtualSince(start).Milliseconds()), "handshake_ms")
			tb.Close()
		}
	})
	b.Run("tls-resumption", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(handshakeLatency(b, link, false), "handshake_ms")
		}
	})
	b.Run("tls-0rtt-first-byte", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(handshakeLatency(b, link, true), "first_byte_ms")
		}
	})
	b.Run("quicbase-1rtt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := netsim.New()
			ch, sh := n.Host("c"), n.Host("s")
			n.AddLink(ch, sh, labs.ClientV4, labs.ServerV4, link)
			cliE := quicbase.NewEndpoint(ch, 4433, &tls13.Config{InsecureSkipVerify: true}, false)
			srvE := quicbase.NewEndpoint(sh, 4433, &tls13.Config{Certificate: benchCert}, true)
			go srvE.Accept()
			start := time.Now()
			if _, err := cliE.Dial(netip.AddrPortFrom(labs.ServerV4, 4433), 10*time.Second); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(n.VirtualSince(start).Milliseconds()), "handshake_ms")
			cliE.Close()
			srvE.Close()
			n.Close()
		}
	})
}

// handshakeLatency runs warm-ticket handshakes over tcpnet and returns
// virtual milliseconds until the handshake (or, with early data, until
// the server holds the first application byte).
func handshakeLatency(b *testing.B, link netsim.LinkConfig, earlyData bool) float64 {
	b.Helper()
	tb, err := labs.NewTestbed(labs.TestbedConfig{V4: link, V6: link})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	scfg := &tls13.Config{Certificate: tb.Cert, MaxEarlyData: 16384}
	l, err := tb.Server.Listen(netip.Addr{}, 9000)
	if err != nil {
		b.Fatal(err)
	}
	gotEarly := make(chan struct{}, 2)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				srv := tls13.Server(c, scfg)
				if srv.Handshake() == nil {
					if len(srv.EarlyData()) > 0 {
						gotEarly <- struct{}{}
					}
					srv.Write([]byte("ok"))
				}
			}()
		}
	}()
	var sess *tls13.ClientSession
	dial := func(cfg *tls13.Config) *tls13.Conn {
		c, err := tb.Client.Dial(netip.Addr{}, netip.AddrPortFrom(labs.ServerV4, 9000), 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		cl := tls13.Client(c, cfg)
		if err := cl.Handshake(); err != nil {
			b.Fatal(err)
		}
		return cl
	}
	cl := dial(&tls13.Config{InsecureSkipVerify: true, OnNewSession: func(s *tls13.ClientSession) { sess = s }})
	cl.Read(make([]byte, 4))
	if sess == nil {
		b.Fatal("no ticket")
	}
	cfg := &tls13.Config{InsecureSkipVerify: true, Session: sess}
	if earlyData {
		cfg.EarlyData = []byte("request")
	}
	start := time.Now()
	cl2 := dial(cfg)
	if earlyData {
		<-gotEarly
	}
	el := tb.Net.VirtualSince(start)
	_ = cl2
	return float64(el.Milliseconds())
}

// BenchmarkA7PluginCC compares the native controller against the same
// algorithm delivered as eBPF bytecode over the session (§3(iii)): the
// plugin must carry real transfers at comparable goodput.
func BenchmarkA7PluginCC(b *testing.B) {
	const size = 3 << 20
	run := func(b *testing.B, ship bool) {
		for i := 0; i < b.N; i++ {
			installed := make(chan struct{}, 1)
			tb, err := labs.NewTestbed(labs.TestbedConfig{
				V4:        netsim.LinkConfig{BandwidthBps: 40e6, Delay: 5 * time.Millisecond},
				V6:        netsim.LinkConfig{Delay: 5 * time.Millisecond},
				TimeScale: 0.5,
				Seed:      int64(i + 1),
				Server: &core.Config{Callbacks: core.Callbacks{
					CCInstalled: func(string) { installed <- struct{}{} },
				}},
			})
			if err != nil {
				b.Fatal(err)
			}
			cli, srv, err := tb.ConnectClient(&core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if ship {
				prog := ebpfvm.MustAssemble(cc.AIMDProgram).Marshal()
				// The server upgrades the *client's* stack: §3(iii) is the
				// server shipping CC to clients; here the client ships to
				// the server which is the data sender.
				if err := cli.SendBPFCC("aimd", prog); err != nil {
					b.Fatal(err)
				}
				select {
				case <-installed:
				case <-time.After(5 * time.Second):
					b.Fatal("plugin not installed")
				}
			}
			labs.ServeDownload(srv, size)
			req, _ := cli.NewStream()
			req.Write([]byte("GET"))
			req.Close()
			down, err := cli.AcceptStream()
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			n, err := io.Copy(io.Discard, down)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(mbps(n, tb.Net.VirtualSince(start)), "goodput_mbps")
			tb.Close()
		}
	}
	b.Run("native-newreno", func(b *testing.B) { run(b, false) })
	b.Run("ebpf-aimd-shipped", func(b *testing.B) { run(b, true) })
}

// BenchmarkTable1 runs the whole feature matrix probe suite once per
// iteration (the cmd/tcpls-features binary is the human-readable form).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := labs.NewTestbed(labs.TestbedConfig{
			V4: netsim.LinkConfig{BandwidthBps: 50e6, Delay: time.Millisecond},
			V6: netsim.LinkConfig{BandwidthBps: 50e6, Delay: 2 * time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		cli, srv, err := tb.ConnectClient(&core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		st, _ := cli.NewStream()
		go func() { st.Write(make([]byte, 100<<10)); st.Close() }()
		sst, err := srv.AcceptStream()
		if err != nil {
			b.Fatal(err)
		}
		if n, err := io.Copy(io.Discard, sst); err != nil || n != 100<<10 {
			b.Fatalf("probe transfer: %d %v", n, err)
		}
		tb.Close()
	}
}
