package tls13

import (
	"bytes"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

var testCert *Certificate

func init() {
	var err error
	testCert, err = GenerateSelfSigned("tcpls-test", []string{"server.test"}, nil)
	if err != nil {
		panic(err)
	}
}

func testRoots() *x509.CertPool {
	pool := x509.NewCertPool()
	leaf, _ := testCert.Leaf()
	pool.AddCert(leaf)
	return pool
}

// handshakePair runs a client/server handshake over an in-memory pipe.
func handshakePair(t *testing.T, clientCfg, serverCfg *Config) (*Conn, *Conn) {
	t.Helper()
	cp, sp := bufferedPipe()
	client := Client(cp, clientCfg)
	server := Server(sp, serverCfg)
	errCh := make(chan error, 1)
	go func() { errCh <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func clientConfig() *Config {
	return &Config{ServerName: "server.test", RootCAs: testRoots()}
}

func serverConfig() *Config {
	return &Config{Certificate: testCert}
}

func TestFullHandshakeAndData(t *testing.T) {
	client, server := handshakePair(t, clientConfig(), serverConfig())
	cs := client.ConnectionState()
	if !cs.HandshakeComplete || cs.Resumed {
		t.Fatalf("state: %+v", cs)
	}
	if cs.CipherSuite != TLS_AES_128_GCM_SHA256 {
		t.Fatalf("suite: %s", CipherSuiteName(cs.CipherSuite))
	}
	go func() {
		buf := make([]byte, 64)
		n, _ := server.Read(buf)
		server.Write(bytes.ToUpper(buf[:n]))
	}()
	client.Write([]byte("over tls"))
	buf := make([]byte, 64)
	n, err := client.Read(buf)
	if err != nil || string(buf[:n]) != "OVER TLS" {
		t.Fatalf("echo: %q, %v", buf[:n], err)
	}
}

func TestAES256Suite(t *testing.T) {
	cc := clientConfig()
	cc.CipherSuites = []uint16{TLS_AES_256_GCM_SHA384}
	client, _ := handshakePair(t, cc, serverConfig())
	if client.ConnectionState().CipherSuite != TLS_AES_256_GCM_SHA384 {
		t.Fatal("suite not honored")
	}
}

func TestCertificateRejectedWithoutTrust(t *testing.T) {
	cp, sp := bufferedPipe()
	client := Client(cp, &Config{ServerName: "server.test", RootCAs: x509.NewCertPool()})
	server := Server(sp, serverConfig())
	go server.Handshake()
	if err := client.Handshake(); err == nil {
		t.Fatal("untrusted certificate accepted")
	}
}

func TestWrongServerNameRejected(t *testing.T) {
	cp, sp := bufferedPipe()
	client := Client(cp, &Config{ServerName: "other.test", RootCAs: testRoots()})
	server := Server(sp, serverConfig())
	go server.Handshake()
	if err := client.Handshake(); err == nil {
		t.Fatal("wrong name accepted")
	}
}

func TestALPNNegotiation(t *testing.T) {
	cc := clientConfig()
	cc.ALPN = []string{"h2", "http/1.1"}
	sc := serverConfig()
	sc.ALPN = []string{"http/1.1"}
	client, server := handshakePair(t, cc, sc)
	if client.ConnectionState().ALPN != "http/1.1" || server.ConnectionState().ALPN != "http/1.1" {
		t.Fatalf("alpn: %q / %q", client.ConnectionState().ALPN, server.ConnectionState().ALPN)
	}
}

func TestTCPLSExtensionsRoundTrip(t *testing.T) {
	cc := clientConfig()
	cc.ExtraClientHello = []Extension{{ExtTCPLS, []byte{1, 2, 3}}}
	sc := serverConfig()
	var sawCH []byte
	sc.OnClientHello = func(info ClientHelloInfo) error {
		sawCH = info.TCPLS
		return nil
	}
	sc.EncryptedExtensions = func(info ClientHelloInfo) []Extension {
		return []Extension{{ExtTCPLS, []byte{9, 8, 7, 6}}}
	}
	client, server := handshakePair(t, cc, sc)
	if !bytes.Equal(sawCH, []byte{1, 2, 3}) {
		t.Fatalf("server saw %v", sawCH)
	}
	if !bytes.Equal(client.ConnectionState().PeerTCPLS, []byte{9, 8, 7, 6}) {
		t.Fatalf("client saw %v", client.ConnectionState().PeerTCPLS)
	}
	if !bytes.Equal(server.ConnectionState().PeerTCPLS, []byte{1, 2, 3}) {
		t.Fatalf("server state %v", server.ConnectionState().PeerTCPLS)
	}
}

func TestOnClientHelloReject(t *testing.T) {
	sc := serverConfig()
	sc.OnClientHello = func(info ClientHelloInfo) error {
		return errors.New("go away")
	}
	cp, sp := bufferedPipe()
	client := Client(cp, clientConfig())
	server := Server(sp, sc)
	errCh := make(chan error, 1)
	go func() { errCh <- server.Handshake() }()
	if err := client.Handshake(); err == nil {
		t.Fatal("client handshake succeeded against rejecting server")
	}
	if err := <-errCh; err == nil {
		t.Fatal("server accepted")
	}
}

// sessionFor runs one full handshake and returns a resumable session.
func sessionFor(t *testing.T, serverCfg *Config, maxEarly uint32) *ClientSession {
	t.Helper()
	serverCfg.MaxEarlyData = maxEarly
	cc := clientConfig()
	client, server := handshakePair(t, cc, serverCfg)
	// Tickets arrive as post-handshake messages: trigger a read.
	go server.Write([]byte("x"))
	buf := make([]byte, 8)
	if _, err := client.Read(buf); err != nil {
		t.Fatal(err)
	}
	sessions := client.Sessions()
	if len(sessions) == 0 {
		t.Fatal("no session ticket received")
	}
	return sessions[0]
}

func TestResumption(t *testing.T) {
	sc := serverConfig()
	sess := sessionFor(t, sc, 0)
	cc := clientConfig()
	cc.Session = sess
	client, server := handshakePair(t, cc, sc)
	if !client.ConnectionState().Resumed || !server.ConnectionState().Resumed {
		t.Fatal("session not resumed")
	}
	// Data still flows.
	go server.Write([]byte("resumed"))
	buf := make([]byte, 16)
	n, err := client.Read(buf)
	if err != nil || string(buf[:n]) != "resumed" {
		t.Fatalf("%q %v", buf[:n], err)
	}
}

func TestResumptionWithForeignTicketFallsBack(t *testing.T) {
	scA := serverConfig()
	sess := sessionFor(t, scA, 0)
	// A different server (different ticket key) can't decrypt the ticket;
	// the handshake must fall back to a full one.
	scB := serverConfig()
	var kb [32]byte
	rand.Read(kb[:])
	scB.TicketKey = kb
	cc := clientConfig()
	cc.Session = sess
	client, _ := handshakePair(t, cc, scB)
	if client.ConnectionState().Resumed {
		t.Fatal("resumed with a foreign ticket")
	}
}

func TestEarlyData(t *testing.T) {
	sc := serverConfig()
	sess := sessionFor(t, sc, 16384)
	if sess.MaxEarlyData != 16384 {
		t.Fatalf("ticket maxEarly = %d", sess.MaxEarlyData)
	}
	cc := clientConfig()
	cc.Session = sess
	cc.EarlyData = []byte("zero rtt payload")
	client, server := handshakePair(t, cc, sc)
	if !client.ConnectionState().EarlyDataAccepted {
		t.Fatal("early data not accepted")
	}
	if got := server.EarlyData(); string(got) != "zero rtt payload" {
		t.Fatalf("server early data: %q", got)
	}
	// 1-RTT data still works after.
	go client.Write([]byte("post"))
	buf := make([]byte, 8)
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "post" {
		t.Fatalf("%q %v", buf[:n], err)
	}
}

func TestEarlyDataReplayRejected(t *testing.T) {
	sc := serverConfig()
	sess := sessionFor(t, sc, 16384)
	cc := clientConfig()
	cc.Session = sess
	cc.EarlyData = []byte("once")
	client, _ := handshakePair(t, cc, sc)
	if !client.ConnectionState().EarlyDataAccepted {
		t.Fatal("first use rejected")
	}
	// Same ticket again: anti-replay must reject 0-RTT (handshake still
	// completes, resumed, but without early data).
	cc2 := clientConfig()
	cc2.Session = sess
	cc2.EarlyData = []byte("again")
	client2, server2 := handshakePair(t, cc2, sc)
	if client2.ConnectionState().EarlyDataAccepted {
		t.Fatal("replayed early data accepted")
	}
	if len(server2.EarlyData()) != 0 {
		t.Fatal("server kept replayed early bytes")
	}
}

func TestEarlyDataWithoutTicketFails(t *testing.T) {
	cc := clientConfig()
	cc.EarlyData = []byte("no ticket")
	cp, _ := bufferedPipe()
	client := Client(cp, cc)
	if err := client.Handshake(); err == nil {
		t.Fatal("early data without session accepted")
	}
}

func TestLargeTransferFragmentation(t *testing.T) {
	client, server := handshakePair(t, clientConfig(), serverConfig())
	data := make([]byte, 100000)
	rand.Read(data)
	go func() {
		client.Write(data)
		client.CloseWrite()
	}()
	var got []byte
	buf := make([]byte, 4096)
	for {
		n, err := server.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("corruption: %d vs %d bytes", len(got), len(data))
	}
}

func TestRecordAPI(t *testing.T) {
	client, server := handshakePair(t, clientConfig(), serverConfig())
	go client.WriteRecordContext(DefaultContext, []byte("record-one"))
	_, rec, err := server.ReadRecordContext()
	if err != nil || string(rec) != "record-one" {
		t.Fatalf("%q %v", rec, err)
	}
	// Record boundaries are preserved (unlike the byte stream).
	go func() {
		client.WriteRecordContext(DefaultContext, []byte("a"))
		client.WriteRecordContext(DefaultContext, []byte("bb"))
	}()
	_, r1, _ := server.ReadRecordContext()
	_, r2, _ := server.ReadRecordContext()
	if string(r1) != "a" || string(r2) != "bb" {
		t.Fatalf("boundaries lost: %q %q", r1, r2)
	}
}

func TestExportSecretAgreement(t *testing.T) {
	client, server := handshakePair(t, clientConfig(), serverConfig())
	a, err := client.ExportSecret("tcpls join", []byte("ctx"), 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := server.ExportSecret("tcpls join", []byte("ctx"), 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("exporters disagree")
	}
	c, _ := client.ExportSecret("tcpls join", []byte("other"), 32)
	if bytes.Equal(a, c) {
		t.Fatal("exporter ignores context")
	}
	rc, err := client.ResumptionSecret()
	rs, err2 := server.ResumptionSecret()
	if err != nil || err2 != nil || !bytes.Equal(rc, rs) {
		t.Fatal("resumption secrets disagree")
	}
}

func TestAppSecretsExposed(t *testing.T) {
	client, server := handshakePair(t, clientConfig(), serverConfig())
	cr, cw, suite, err := client.AppTrafficSecrets()
	if err != nil {
		t.Fatal(err)
	}
	sr, sw, suite2, err := server.AppTrafficSecrets()
	if err != nil {
		t.Fatal(err)
	}
	if suite != suite2 {
		t.Fatal("suite mismatch")
	}
	if !bytes.Equal(cr, sw) || !bytes.Equal(cw, sr) {
		t.Fatal("traffic secrets do not cross-match")
	}
}

func TestCloseNotify(t *testing.T) {
	client, server := handshakePair(t, clientConfig(), serverConfig())
	go client.CloseWrite()
	buf := make([]byte, 8)
	if _, err := server.Read(buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReadBeforeHandshake(t *testing.T) {
	cp, _ := bufferedPipe()
	c := Client(cp, clientConfig())
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrHandshakeRequired) {
		t.Fatalf("got %v", err)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrHandshakeRequired) {
		t.Fatalf("got %v", err)
	}
	if _, _, _, err := c.AppTrafficSecrets(); !errors.Is(err, ErrHandshakeRequired) {
		t.Fatalf("got %v", err)
	}
}

// tamperConn flips a byte in the nth record flowing client -> server.
type tamperConn struct {
	net.Conn
	n     int
	count int
}

func (tc *tamperConn) Write(p []byte) (int, error) {
	tc.count++
	if tc.count == tc.n && len(p) > 20 {
		q := append([]byte(nil), p...)
		q[len(q)-1] ^= 0x01
		return tc.Conn.Write(q)
	}
	return tc.Conn.Write(p)
}

func TestTamperedRecordDetected(t *testing.T) {
	cp, sp := bufferedPipe()
	client := Client(&tamperConn{Conn: cp, n: 100}, clientConfig()) // no tampering during handshake
	server := Server(sp, serverConfig())
	go server.Handshake()
	if err := client.Handshake(); err != nil {
		t.Fatal(err)
	}
	// Now tamper with the next client record.
	client.conn.(*tamperConn).n = client.conn.(*tamperConn).count + 1
	go client.Write([]byte("tampered"))
	_, err := server.Read(make([]byte, 32))
	if !errors.Is(err, ErrBadRecordMAC) {
		t.Fatalf("want ErrBadRecordMAC, got %v", err)
	}
}

func TestHandshakeKeyScheduleVectors(t *testing.T) {
	// Sanity-pin HKDF-Expand-Label against RFC 8448 §3 (simple 1-RTT
	// handshake): derive the early secret from a zero PSK and check the
	// "derived" output matches the published vector.
	s := suites[TLS_AES_128_GCM_SHA256]
	early := s.extract(nil, nil)
	derived := s.deriveSecret(early, "derived", s.emptyHash())
	want := "6f2615a108c702c5678f54fc9dbab69716c076189c48250cebeac3576c3611ba"
	got := hexStr(derived)
	if got != want {
		t.Fatalf("derived = %s, want %s", got, want)
	}
}

func hexStr(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, len(b)*2)
	for _, x := range b {
		out = append(out, digits[x>>4], digits[x&0xf])
	}
	return string(out)
}

func TestConcurrentDuplex(t *testing.T) {
	client, server := handshakePair(t, clientConfig(), serverConfig())
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1024)
		for i := 0; i < 50; i++ {
			if _, err := server.Read(buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := server.Write([]byte("pong")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	buf := make([]byte, 1024)
	for i := 0; i < 50; i++ {
		if _, err := client.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("duplex deadlock")
	}
}
