package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/cc"
	"github.com/pluginized-protocols/gotcpls/internal/ebpfvm"
	"github.com/pluginized-protocols/gotcpls/internal/netsim"
	"github.com/pluginized-protocols/gotcpls/internal/record"
	"github.com/pluginized-protocols/gotcpls/internal/tcpnet"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
)

var (
	cV4 = netip.MustParseAddr("10.0.0.1")
	sV4 = netip.MustParseAddr("10.0.0.2")
	cV6 = netip.MustParseAddr("fc00::1")
	sV6 = netip.MustParseAddr("fc00::2")
)

var coreCert *tls13.Certificate

func init() {
	var err error
	coreCert, err = tls13.GenerateSelfSigned("tcpls", nil, nil)
	if err != nil {
		panic(err)
	}
}

type coreEnv struct {
	net      *netsim.Network
	linkV4   *netsim.Link
	linkV6   *netsim.Link
	client   *tcpnet.Stack
	server   *tcpnet.Stack
	listener *Listener
}

// dualStackEnv builds the paper's testbed shape: client and server with
// v4 and v6 paths over separate links.
func dualStackEnv(t *testing.T, v4cfg, v6cfg netsim.LinkConfig, clientCfg, serverCfg *Config, netOpts ...netsim.Option) *coreEnv {
	t.Helper()
	n := netsim.New(netOpts...)
	ch, sh := n.Host("client"), n.Host("server")
	l4 := n.AddLink(ch, sh, cV4, sV4, v4cfg)
	l6 := n.AddLink(ch, sh, cV6, sV6, v6cfg)
	cs := tcpnet.NewStack(ch, tcpnet.Config{})
	ss := tcpnet.NewStack(sh, tcpnet.Config{})
	tl, err := ss.Listen(netip.Addr{}, 443)
	if err != nil {
		t.Fatal(err)
	}
	if serverCfg.TLS == nil {
		serverCfg.TLS = &tls13.Config{}
	}
	serverCfg.TLS.Certificate = coreCert
	if len(serverCfg.AdvertiseAddresses) == 0 {
		serverCfg.AdvertiseAddresses = []netip.AddrPort{
			netip.AddrPortFrom(sV4, 443),
			netip.AddrPortFrom(sV6, 443),
		}
	}
	serverCfg.Clock = n
	clientCfg.Clock = n
	if clientCfg.TLS == nil {
		clientCfg.TLS = &tls13.Config{}
	}
	clientCfg.TLS.InsecureSkipVerify = true
	lst := NewListener(tl, serverCfg)
	t.Cleanup(func() {
		lst.Close()
		cs.Close()
		ss.Close()
		n.Close()
	})
	return &coreEnv{net: n, linkV4: l4, linkV6: l6, client: cs, server: ss, listener: lst}
}

// connect establishes a client session and returns it with the matching
// server session.
func (e *coreEnv) connect(t *testing.T, cfg *Config) (*Session, *Session) {
	t.Helper()
	if cfg.TLS == nil {
		cfg.TLS = &tls13.Config{InsecureSkipVerify: true}
	}
	cfg.TLS.InsecureSkipVerify = true
	cfg.Clock = e.net
	cli := NewClient(cfg, tcpnet.Dialer{Stack: e.client})
	type res struct {
		s   *Session
		err error
	}
	acceptCh := make(chan res, 1)
	go func() {
		s, err := e.listener.Accept()
		acceptCh <- res{s, err}
	}()
	if _, err := cli.Connect(netip.Addr{}, netip.AddrPortFrom(sV4, 443), 5*time.Second); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if err := cli.Handshake(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	r := <-acceptCh
	if r.err != nil {
		t.Fatalf("accept: %v", r.err)
	}
	return cli, r.s
}

func fastLinks() (netsim.LinkConfig, netsim.LinkConfig) {
	return netsim.LinkConfig{Delay: time.Millisecond, Name: "v4"},
		netsim.LinkConfig{Delay: 2 * time.Millisecond, Name: "v6"}
}

func TestHandshakeAndStreamEcho(t *testing.T) {
	v4, v6 := fastLinks()
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	cli, srv := e.connect(t, &Config{})
	if cli.ConnID() == 0 || cli.ConnID() != srv.ConnID() {
		t.Fatalf("connid: %d vs %d", cli.ConnID(), srv.ConnID())
	}
	if cli.CookiesLeft() == 0 {
		t.Fatal("no cookies issued")
	}
	if len(cli.PeerAddresses()) != 2 {
		t.Fatalf("advertised addresses: %v", cli.PeerAddresses())
	}

	st, err := cli.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		sst, err := srv.AcceptStream()
		if err != nil {
			return
		}
		data, _ := io.ReadAll(sst)
		up := bytes.ToUpper(data)
		sst2, _ := srv.NewStream()
		sst2.Write(up)
		sst2.Close()
	}()
	st.Write([]byte("hello tcpls"))
	st.Close()
	back, err := cli.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(back)
	if err != nil || string(got) != "HELLO TCPLS" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestStreamIDParity(t *testing.T) {
	v4, v6 := fastLinks()
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	cli, srv := e.connect(t, &Config{})
	c1, _ := cli.NewStream()
	c2, _ := cli.NewStream()
	s1, _ := srv.NewStream()
	if c1.ID()%2 != 1 || c2.ID()%2 != 1 || s1.ID()%2 != 0 {
		t.Fatalf("ids: %d %d %d", c1.ID(), c2.ID(), s1.ID())
	}
	if c1.ID() == c2.ID() {
		t.Fatal("duplicate ids")
	}
}

func TestLargeTransferIntegrity(t *testing.T) {
	v4, v6 := fastLinks()
	v4.BandwidthBps = 100e6
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	cli, srv := e.connect(t, &Config{})
	data := make([]byte, 2<<20)
	rand.Read(data)
	st, _ := cli.NewStream()
	go func() {
		st.Write(data)
		st.Close()
	}()
	sst, err := srv.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(sst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("corruption: %d vs %d", len(got), len(data))
	}
	// Acks must have drained the replay buffer.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.BytesUnacked() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replay buffer not drained: %d", st.BytesUnacked())
}

func TestMultipleConcurrentStreams(t *testing.T) {
	v4, v6 := fastLinks()
	v4.BandwidthBps = 100e6
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	cli, srv := e.connect(t, &Config{})
	const N = 5
	payloads := make([][]byte, N)
	for i := range payloads {
		payloads[i] = make([]byte, 100<<10)
		rand.Read(payloads[i])
	}
	errCh := make(chan error, 2*N)
	for i := 0; i < N; i++ {
		st, err := cli.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		go func(st *Stream, p []byte) {
			_, err := st.Write(p)
			if err == nil {
				err = st.Close()
			}
			errCh <- err
		}(st, payloads[i])
	}
	seen := make(map[uint32][]byte)
	for i := 0; i < N; i++ {
		sst, err := srv.AcceptStream()
		if err != nil {
			t.Fatal(err)
		}
		go func(sst *Stream) {
			data, err := io.ReadAll(sst)
			seenSet(seen, sst.ID(), data)
			errCh <- err
		}(sst)
	}
	for i := 0; i < 2*N; i++ {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("timeout")
		}
	}
	for i := 0; i < N; i++ {
		id := uint32(1 + 2*i)
		if !bytes.Equal(seen[id], payloads[i]) {
			t.Fatalf("stream %d corrupted (%d vs %d bytes)", id, len(seen[id]), len(payloads[i]))
		}
	}
}

var seenMu = make(chan struct{}, 1)

func seenSet(m map[uint32][]byte, k uint32, v []byte) {
	seenMu <- struct{}{}
	m[k] = v
	<-seenMu
}

func TestJoinSecondPath(t *testing.T) {
	v4, v6 := fastLinks()
	var joins atomic.Int32
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{
		Callbacks: Callbacks{Join: func(id uint32, remote net.Addr) { joins.Add(1) }},
	})
	cli, srv := e.connect(t, &Config{})
	before := cli.CookiesLeft()
	pathID, err := cli.Connect(cV6, netip.AddrPortFrom(sV6, 443), 5*time.Second)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if pathID == 0 {
		t.Fatal("no path id")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && srv.NumConns() < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	if cli.NumConns() != 2 || srv.NumConns() != 2 {
		t.Fatalf("conns: %d / %d", cli.NumConns(), srv.NumConns())
	}
	// Cookie spent, but the join reply replenished some.
	if cli.CookiesLeft() < before {
		t.Fatalf("cookies: %d -> %d (no replenish)", before, cli.CookiesLeft())
	}
	if joins.Load() != 1 {
		t.Fatalf("join callback fired %d times", joins.Load())
	}
}

func TestJoinWithForgedBinderRejected(t *testing.T) {
	v4, v6 := fastLinks()
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	cli, _ := e.connect(t, &Config{})

	// Attacker saw the (encrypted) handshake but not the secrets: craft
	// a JOIN with the right ConnID but a wrong binder.
	join := &record.ClientHelloTCPLS{
		Version: record.Version,
		Join: &record.JoinRequest{
			ConnID: cli.ConnID(),
			Cookie: bytes.Repeat([]byte{0x42}, record.CookieLen),
			Binder: bytes.Repeat([]byte{0x13}, 32),
		},
	}
	tcp, err := e.client.Dial(netip.Addr{}, netip.AddrPortFrom(sV4, 443), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tc := tls13.Client(tcp, &tls13.Config{
		InsecureSkipVerify: true,
		ExtraClientHello:   []tls13.Extension{{Type: tls13.ExtTCPLS, Data: join.Encode()}},
	})
	if err := tc.Handshake(); err == nil {
		t.Fatal("forged join accepted")
	}
}

func TestJoinCookieSingleUse(t *testing.T) {
	v4, v6 := fastLinks()
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	cli, _ := e.connect(t, &Config{})
	// Steal a valid (cookie, binder) pair from the client and replay it.
	cli.mu.Lock()
	cookie := append([]byte(nil), cli.cookies[0]...)
	binder := joinBinder(cli.joinKey, cookie)
	connID := cli.connID
	cli.mu.Unlock()
	join := &record.ClientHelloTCPLS{
		Version: record.Version,
		Join:    &record.JoinRequest{ConnID: connID, Cookie: cookie, Binder: binder},
	}
	dial := func() error {
		tcp, err := e.client.Dial(netip.Addr{}, netip.AddrPortFrom(sV4, 443), 5*time.Second)
		if err != nil {
			return err
		}
		tc := tls13.Client(tcp, &tls13.Config{
			InsecureSkipVerify: true,
			ExtraClientHello:   []tls13.Extension{{Type: tls13.ExtTCPLS, Data: join.Encode()}},
		})
		return tc.Handshake()
	}
	if err := dial(); err != nil {
		t.Fatalf("first use: %v", err)
	}
	if err := dial(); err == nil {
		t.Fatal("cookie replay accepted")
	}
}

func TestUserTimeoutOptionAppliedOnServer(t *testing.T) {
	v4, v6 := fastLinks()
	var gotKind atomic.Int32
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{
		Callbacks: Callbacks{TCPOption: func(kind uint8, data []byte) { gotKind.Store(int32(kind)) }},
	})
	cli, srv := e.connect(t, &Config{})
	if err := cli.SendUserTimeout(45 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if gotKind.Load() == 28 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if gotKind.Load() != 28 {
		t.Fatal("option not received")
	}
	// "the server extracts it and performs the required setsockopt":
	// find the server-side tcpnet conn and check.
	var applied bool
	for _, pc := range srv.livePaths() {
		if tc, ok := pc.tcp.(*tcpnet.Conn); ok && tc.UserTimeout() == 45*time.Second {
			applied = true
		}
	}
	if !applied {
		t.Fatal("user timeout not applied to the kernel^W tcpnet socket")
	}
}

func TestBPFCCUpgrade(t *testing.T) {
	v4, v6 := fastLinks()
	var installed atomic.Value
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{
		Callbacks: Callbacks{CCInstalled: func(name string) { installed.Store(name) }},
	})
	cli, srv := e.connect(t, &Config{})
	prog := ebpfvm.MustAssemble(cc.AIMDProgram)
	if err := cli.SendBPFCC("aimd", prog.Marshal()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, _ := installed.Load().(string); v == "ebpf:aimd" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var swapped bool
	for _, pc := range srv.livePaths() {
		if tc, ok := pc.tcp.(*tcpnet.Conn); ok && tc.CongestionControlName() == "ebpf:aimd" {
			swapped = true
		}
	}
	if !swapped {
		t.Fatal("eBPF controller not installed")
	}
	// Garbage bytecode is rejected by the verifier and ignored.
	if err := cli.SendBPFCC("junk", []byte{0xff, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	for _, pc := range srv.livePaths() {
		if tc, ok := pc.tcp.(*tcpnet.Conn); ok && tc.CongestionControlName() == "ebpf:junk" {
			t.Fatal("unverified bytecode installed")
		}
	}
}

func TestSessionCloseSecure(t *testing.T) {
	v4, v6 := fastLinks()
	var closedErr atomic.Value
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{
		Callbacks: Callbacks{SessionClosed: func(err error) { closedErr.Store(true) }},
	})
	cli, srv := e.connect(t, &Config{})
	cli.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !srv.Closed() {
		time.Sleep(5 * time.Millisecond)
	}
	if !srv.Closed() {
		t.Fatal("server session not closed")
	}
	if srv.Err() != nil {
		t.Fatalf("orderly close reported error: %v", srv.Err())
	}
	if _, err := cli.NewStream(); !errors.Is(err, ErrSessionClosed) {
		t.Fatal("stream created on closed session")
	}
}

func TestMigrationV4ToV6(t *testing.T) {
	// The Figure 4 flow in miniature: download over v4, join v6, attach
	// the stream there, close v4 — the transfer must finish unbroken.
	v4, v6 := fastLinks()
	v4.BandwidthBps, v6.BandwidthBps = 50e6, 50e6
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	cli, srv := e.connect(t, &Config{})

	data := make([]byte, 1<<20)
	rand.Read(data)
	req, _ := cli.NewStream()
	req.Write([]byte("GET"))
	req.Close()

	go func() {
		sst, err := srv.AcceptStream()
		if err != nil {
			return
		}
		io.ReadAll(sst)
		down, _ := srv.NewStream()
		down.Write(data)
		down.Close()
	}()

	down, err := cli.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	// Read some, then migrate mid-download.
	got := make([]byte, 0, len(data))
	buf := make([]byte, 32<<10)
	for len(got) < 256<<10 {
		n, err := down.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	v4Path := cli.PathIDs()[0]
	if _, err := cli.Connect(cV6, netip.AddrPortFrom(sV6, 443), 5*time.Second); err != nil {
		t.Fatalf("join v6: %v", err)
	}
	if err := cli.ClosePath(v4Path); err != nil {
		t.Fatalf("close v4: %v", err)
	}
	rest, err := io.ReadAll(down)
	if err != nil {
		t.Fatalf("read after migration: %v", err)
	}
	got = append(got, rest...)
	if !bytes.Equal(got, data) {
		down.mu.Lock()
		t.Logf("client stream: recvNext=%d finalOffset=%d finKnown=%v ooo=%d",
			down.recvNext, down.finalOffset, down.finKnown, len(down.ooo))
		down.mu.Unlock()
		for _, sst := range srv.Streams() {
			sst.mu.Lock()
			t.Logf("server stream %d: sendOffset=%d ackedTo=%d unacked=%d finSent=%v",
				sst.id, sst.sendOffset, sst.ackedTo, sst.replay.Len(), sst.finSent)
			sst.mu.Unlock()
		}
		prefix := 0
		for prefix < len(got) && prefix < len(data) && got[prefix] == data[prefix] {
			prefix++
		}
		t.Fatalf("migration corrupted download: %d vs %d bytes (first mismatch at %d)", len(got), len(data), prefix)
	}
	if cli.NumConns() != 1 {
		t.Fatalf("conns after migration: %d", cli.NumConns())
	}
}

func TestFailoverAfterRST(t *testing.T) {
	// A middlebox forges a RST that kills the v4 connection mid-transfer
	// (§2.1): TCPLS reconnects (JOIN) and replays; plain TCP would die.
	v4, v6 := fastLinks()
	v4.BandwidthBps, v6.BandwidthBps = 50e6, 50e6
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	e.linkV4.Use(&netsim.RSTInjector{AfterSegments: 40, Once: true, BothDirections: true})
	cli, srv := e.connect(t, &Config{})

	data := make([]byte, 1<<20)
	rand.Read(data)
	st, _ := cli.NewStream()
	go func() {
		st.Write(data)
		st.Close()
	}()
	sst, err := srv.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var got []byte
	var rerr error
	go func() {
		got, rerr = io.ReadAll(sst)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("transfer never completed after RST")
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("failover corrupted data: %d vs %d", len(got), len(data))
	}
}

func TestHappyEyeballsPrefersWorkingFamily(t *testing.T) {
	v4, v6 := fastLinks()
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	e.linkV4.SetDown(true) // v4 broken: eyeballs must settle on v6
	cfg := &Config{TLS: &tls13.Config{InsecureSkipVerify: true}, Clock: e.net}
	cli := NewClient(cfg, tcpnet.Dialer{Stack: e.client})
	go e.listener.Accept()
	addr, err := cli.ConnectHappyEyeballs(
		[]netip.AddrPort{netip.AddrPortFrom(sV4, 443), netip.AddrPortFrom(sV6, 443)},
		50*time.Millisecond, 2*time.Second)
	if err != nil {
		t.Fatalf("happy eyeballs: %v", err)
	}
	if addr.Addr() != sV6 {
		t.Fatalf("connected to %v, want v6", addr)
	}
	if err := cli.Handshake(); err != nil {
		t.Fatal(err)
	}
}

func TestCWndMatchedRecordSizing(t *testing.T) {
	v4, v6 := fastLinks()
	v4.BandwidthBps = 50e6
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	cli, _ := e.connect(t, &Config{}) // RecordSize 0 -> cross-layer sizing
	pc := cli.primaryPath()
	if pc == nil {
		t.Fatal("no path")
	}
	n := pc.chunkSize()
	if n < 512 || n > MaxRecordPayload {
		t.Fatalf("chunk size %d out of range", n)
	}
	// With a fixed record size the policy is bypassed.
	cli2, _ := e.connect(t, &Config{RecordSize: 1000})
	if got := cli2.primaryPath().chunkSize(); got != 1000 {
		t.Fatalf("fixed record size ignored: %d", got)
	}
}

func TestPlainTLSClientIgnored(t *testing.T) {
	v4, v6 := fastLinks()
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	tcp, err := e.client.Dial(netip.Addr{}, netip.AddrPortFrom(sV4, 443), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tc := tls13.Client(tcp, &tls13.Config{InsecureSkipVerify: true})
	// Handshake succeeds (the listener tolerates plain TLS) but no
	// session is created.
	if err := tc.Handshake(); err != nil {
		t.Fatalf("plain TLS handshake: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := len(e.listener.Sessions()); n != 0 {
		t.Fatalf("plain TLS created %d sessions", n)
	}
}

func TestPingPong(t *testing.T) {
	v4, v6 := fastLinks()
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	cli, _ := e.connect(t, &Config{})
	if err := cli.Ping(cli.PathIDs()[0]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // pong must not wedge the loop
	st, _ := cli.NewStream()
	st.Write([]byte("after ping"))
	st.Close()
}

func TestAddressAdvertisementRuntime(t *testing.T) {
	v4, v6 := fastLinks()
	var advertised atomic.Value
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{
		Callbacks: Callbacks{AddressAdvertised: func(ap netip.AddrPort, primary bool) {
			advertised.Store(ap)
		}},
	})
	cli, _ := e.connect(t, &Config{})
	extra := netip.AddrPortFrom(cV6, 9999)
	if err := cli.AdvertiseAddress(extra, false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ap, _ := advertised.Load().(netip.AddrPort); ap == extra {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("advertisement not delivered")
}

func TestMultipathAggregation(t *testing.T) {
	// Two 20 Mbps paths: in aggregate mode the session sprays one stream
	// across both connections and the receiver reorders by offset.
	v4, v6 := fastLinks()
	v4.BandwidthBps, v6.BandwidthBps = 20e6, 20e6
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{Multipath: true})
	cli, srv := e.connect(t, &Config{Multipath: true, Mode: ModeAggregate})
	if !cli.Multipath() {
		t.Fatal("multipath not negotiated")
	}
	if _, err := cli.Connect(cV6, netip.AddrPortFrom(sV6, 443), 5*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	data := make([]byte, 2<<20)
	rand.Read(data)
	st, _ := cli.NewStream()
	start := time.Now()
	go func() {
		st.Write(data)
		st.Close()
	}()
	sst, err := srv.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(sst)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !bytes.Equal(got, data) {
		t.Fatalf("aggregation corrupted data: %d vs %d", len(got), len(data))
	}
	// 2 MB over a single 20 Mbps path cannot beat 800 ms; with both
	// paths carrying data the transfer must finish well under that.
	// Race-detector instrumentation slows the real-time emulator below
	// link rate, so the throughput bar only holds in normal builds.
	if !raceEnabled {
		singlePathFloor := time.Duration(float64(len(data)*8) / 20e6 * float64(time.Second))
		if elapsed > singlePathFloor*8/10 {
			t.Fatalf("aggregate transfer took %s, want < 80%% of the single-path floor %s", elapsed, singlePathFloor)
		}
	}
}

func TestMultipathNotNegotiatedWhenServerDeclines(t *testing.T) {
	v4, v6 := fastLinks()
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{Multipath: false})
	cli, _ := e.connect(t, &Config{Multipath: true})
	if cli.Multipath() {
		t.Fatal("multipath negotiated against server policy")
	}
}
