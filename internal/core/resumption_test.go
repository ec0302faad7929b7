package core

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/tls13"
)

// countingConn counts the bytes the TLS client reads off the transport:
// the size of the server's flight.
type countingConn struct {
	net.Conn
	read int
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read += n
	return n, err
}

// tlsThroughListener runs one TLS handshake against the environment's
// core.Listener, as a plain TLS client, and returns the connection and how
// many bytes the server sent up to the end of the handshake.
func tlsThroughListener(t *testing.T, e *coreEnv, cfg *tls13.Config) (*tls13.Conn, int) {
	t.Helper()
	tcp, err := e.client.Dial(netip.Addr{}, netip.AddrPortFrom(sV4, 443), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcp.Close() })
	cc := &countingConn{Conn: tcp}
	cfg.InsecureSkipVerify = true
	tc := tls13.Client(cc, cfg)
	if err := tc.Handshake(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return tc, cc.read
}

// ticketThroughListener completes a full handshake and returns the
// session ticket the listener issued after it.
func ticketThroughListener(t *testing.T, e *coreEnv) (*tls13.ClientSession, int) {
	t.Helper()
	tc, flight := tlsThroughListener(t, e, &tls13.Config{})
	if tc.ConnectionState().Resumed {
		t.Fatal("first handshake resumed")
	}
	// The ticket is a post-handshake message: read until the listener,
	// which has no use for a plain TLS client, closes the connection.
	tc.Read(make([]byte, 8))
	sessions := tc.Sessions()
	if len(sessions) == 0 {
		t.Fatal("no session ticket received")
	}
	return sessions[0], flight
}

// TestListenerResumesWithZeroTicketKey: with no TicketKey configured, a
// ticket issued on one connection must resume on the next — the key is
// the listener's, not the connection's — and the resumed server flight
// carries no Certificate or CertificateVerify.
func TestListenerResumesWithZeroTicketKey(t *testing.T) {
	v4, v6 := fastLinks()
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{})
	sess, fullFlight := ticketThroughListener(t, e)
	tc, resumedFlight := tlsThroughListener(t, e, &tls13.Config{Session: sess})
	if !tc.ConnectionState().Resumed {
		t.Fatal("ticket issued by the listener did not resume on a second connection")
	}
	// The certificate alone is several hundred bytes.
	if resumedFlight > fullFlight-300 {
		t.Fatalf("resumed server flight is %d bytes against %d for a full handshake: Certificate/CertificateVerify still sent?",
			resumedFlight, fullFlight)
	}
}

// TestListenerRejectsReplayedEarlyData: the 0-RTT anti-replay set is the
// listener's too, so a ticket's early data is accepted on one connection
// and refused when the same ticket is presented on another.
func TestListenerRejectsReplayedEarlyData(t *testing.T) {
	v4, v6 := fastLinks()
	e := dualStackEnv(t, v4, v6, &Config{}, &Config{TLS: &tls13.Config{MaxEarlyData: 16384}})
	sess, _ := ticketThroughListener(t, e)
	first, _ := tlsThroughListener(t, e, &tls13.Config{Session: sess, EarlyData: []byte("once")})
	if st := first.ConnectionState(); !st.Resumed || !st.EarlyDataAccepted {
		t.Fatalf("first use of the ticket: resumed=%v early=%v, want both", st.Resumed, st.EarlyDataAccepted)
	}
	replay, _ := tlsThroughListener(t, e, &tls13.Config{Session: sess, EarlyData: []byte("again")})
	if st := replay.ConnectionState(); !st.Resumed || st.EarlyDataAccepted {
		t.Fatalf("replayed ticket: resumed=%v early=%v, want resumed without early data", st.Resumed, st.EarlyDataAccepted)
	}
}
