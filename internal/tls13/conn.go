package tls13

import (
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
)

// Config configures a Conn. The zero value is usable for a client that
// skips certificate verification only if InsecureSkipVerify is set.
type Config struct {
	// ServerName is sent in SNI and used for certificate verification.
	ServerName string
	// Certificate is the server identity (required on servers).
	Certificate *Certificate
	// RootCAs verifies the server chain on clients. nil means the host
	// pool would be used; in this self-contained stack nil with
	// InsecureSkipVerify unset is an error.
	RootCAs *x509.CertPool
	// InsecureSkipVerify disables chain validation (tests/emulation).
	InsecureSkipVerify bool
	// ALPN lists offered (client) or supported (server) protocols.
	ALPN []string
	// CipherSuites restricts the suites. Empty means defaults.
	CipherSuites []uint16

	// ExtraClientHello extensions are appended to the ClientHello — the
	// hook TCPLS uses for its transport parameter and JOIN (§2.2, Fig 2).
	ExtraClientHello []Extension
	// EncryptedExtensions lets the server append extensions to EE based
	// on the ClientHello — the hook for TCPLS CONNIDs, cookies and
	// address advertisements (Fig 2).
	EncryptedExtensions func(ClientHelloInfo) []Extension
	// OnClientHello lets the server inspect/reject a ClientHello before
	// answering (TCPLS JOIN validation). Returning an error aborts.
	OnClientHello func(ClientHelloInfo) error

	// Session resumes a previous session (client).
	Session *ClientSession
	// EarlyData is written as 0-RTT application data with the ClientHello
	// (client; requires Session with MaxEarlyData > 0).
	EarlyData []byte
	// MaxEarlyData advertises 0-RTT acceptance on issued tickets (server).
	MaxEarlyData uint32
	// NumTickets is how many session tickets the server sends after the
	// handshake (default 1; negative disables).
	NumTickets int
	// TicketKey encrypts session tickets (server). Zero means a random
	// per-Config key (tickets then only work against this process).
	TicketKey [32]byte

	// OnNewSession is invoked on clients for each ticket received.
	OnNewSession func(*ClientSession)

	// tickets is the server's ticket-sealing key and 0-RTT anti-replay
	// set: created on first use, and shared with every Clone.
	ticketsOnce sync.Once
	tickets     *ticketStore
}

// Clone returns a copy of cfg that shares cfg's ticket key and 0-RTT
// anti-replay set. A server that gives each connection its own Config
// (to attach per-connection callbacks) derives them all from one parent,
// so a ticket issued on one connection resumes on the next and a replayed
// ticket is caught whichever connection it arrives on. Cloning draws the
// parent's ticket key if TicketKey is zero and none was drawn yet.
func (cfg *Config) Clone() *Config {
	return &Config{
		ServerName:          cfg.ServerName,
		Certificate:         cfg.Certificate,
		RootCAs:             cfg.RootCAs,
		InsecureSkipVerify:  cfg.InsecureSkipVerify,
		ALPN:                cfg.ALPN,
		CipherSuites:        cfg.CipherSuites,
		ExtraClientHello:    cfg.ExtraClientHello,
		EncryptedExtensions: cfg.EncryptedExtensions,
		OnClientHello:       cfg.OnClientHello,
		Session:             cfg.Session,
		EarlyData:           cfg.EarlyData,
		MaxEarlyData:        cfg.MaxEarlyData,
		NumTickets:          cfg.NumTickets,
		TicketKey:           cfg.TicketKey,
		OnNewSession:        cfg.OnNewSession,
		tickets:             cfg.ticketStore(),
	}
}

// ClientHelloInfo is the server's view of a ClientHello.
type ClientHelloInfo struct {
	ServerName string
	ALPN       []string
	// TCPLS is the raw TCPLS extension payload, nil if absent.
	TCPLS []byte
	// Resumption reports whether a PSK was offered.
	Resumption bool
}

// ClientSession is a resumable session (one ticket's worth).
type ClientSession struct {
	Ticket       []byte
	PSK          []byte
	SuiteID      uint16
	MaxEarlyData uint32
	ALPN         string
	AgeAdd       uint32
	ReceivedAt   time.Time
}

// ConnectionState is the post-handshake summary.
type ConnectionState struct {
	HandshakeComplete bool
	CipherSuite       uint16
	ALPN              string
	Resumed           bool
	EarlyDataAccepted bool
	ServerName        string
	// PeerEncryptedExtensions are the EE extensions received (client).
	PeerEncryptedExtensions []Extension
	// PeerTCPLS is the TCPLS extension payload from the peer (either the
	// ClientHello on servers or EncryptedExtensions on clients).
	PeerTCPLS []byte
}

// Errors.
var (
	ErrHandshakeRequired = errors.New("tls13: handshake not complete")
	ErrEarlyDataRejected = errors.New("tls13: early data rejected by server")
	ErrNoCertificate     = errors.New("tls13: server config has no certificate")
)

// Conn is a TLS 1.3 connection over any net.Conn.
type Conn struct {
	conn     net.Conn
	cfg      *Config
	isClient bool

	rl    recordLayer
	hsBuf []byte // buffered handshake bytes across records

	muRead, muWrite sync.Mutex
	hsDone          bool
	hsErr           error
	closed          bool

	suite   *suiteParams
	ks      *keySchedule
	version uint16

	clientAppSecret []byte
	serverAppSecret []byte
	exporterSecret  []byte
	resumptionMS    []byte

	state    ConnectionState
	peerCert *x509.Certificate

	sessions []*ClientSession

	appReadBuf []byte // pooled record payload Read is draining, from appReadOff
	appReadOff int

	// server-side early data bookkeeping
	earlyAccepted bool
	skipEarlyData bool
	earlyBudget   int
	earlyBuf      []byte
}

// Client wraps conn as the client side of a TLS 1.3 connection.
func Client(conn net.Conn, cfg *Config) *Conn {
	c := &Conn{conn: conn, cfg: cfg, isClient: true}
	c.rl.rw = conn
	return c
}

// Server wraps conn as the server side.
func Server(conn net.Conn, cfg *Config) *Conn {
	c := &Conn{conn: conn, cfg: cfg, isClient: false}
	c.rl.rw = conn
	return c
}

// Underlying returns the wrapped net.Conn (TCPLS uses it to reach the
// TCP introspection interface).
func (c *Conn) Underlying() net.Conn { return c.conn }

// Handshake runs the handshake if it has not run yet.
func (c *Conn) Handshake() error {
	c.muRead.Lock()
	defer c.muRead.Unlock()
	c.muWrite.Lock()
	defer c.muWrite.Unlock()
	return c.handshakeLocked()
}

func (c *Conn) handshakeLocked() error {
	if c.hsDone {
		return nil
	}
	if c.hsErr != nil {
		return c.hsErr
	}
	var err error
	if c.isClient {
		err = c.clientHandshake()
	} else {
		err = c.serverHandshake()
	}
	if err != nil {
		c.hsErr = err
		c.rl.sendAlert(alertHandshakeFail)
		return err
	}
	c.hsDone = true
	c.state.HandshakeComplete = true
	return nil
}

// ConnectionState returns the negotiated parameters.
func (c *Conn) ConnectionState() ConnectionState { return c.state }

// Sessions returns tickets received so far (client side).
func (c *Conn) Sessions() []*ClientSession {
	c.muRead.Lock()
	defer c.muRead.Unlock()
	return append([]*ClientSession(nil), c.sessions...)
}

// suiteID returns the negotiated suite id.
func (c *Conn) suiteID() uint16 {
	if c.suite == nil {
		return 0
	}
	return c.suite.id
}

// AppTrafficSecrets exposes (readSecret, writeSecret) and the suite for
// layering TCPLS's per-stream crypto contexts (§2.3) above this
// connection's application keys.
func (c *Conn) AppTrafficSecrets() (read, write []byte, suiteID uint16, err error) {
	if !c.hsDone {
		return nil, nil, 0, ErrHandshakeRequired
	}
	if c.isClient {
		return c.serverAppSecret, c.clientAppSecret, c.suite.id, nil
	}
	return c.clientAppSecret, c.serverAppSecret, c.suite.id, nil
}

// ExportSecret derives key material bound to this session (RFC 8446
// §7.5). TCPLS uses it for JOIN cookie binders and per-session ids.
func (c *Conn) ExportSecret(label string, context []byte, length int) ([]byte, error) {
	if !c.hsDone {
		return nil, ErrHandshakeRequired
	}
	h := c.suite.newHash()
	h.Write(context)
	derived := c.suite.deriveSecret(c.exporterSecret, label, c.suite.emptyHash())
	return c.suite.expandLabel(derived, "exporter", h.Sum(nil), length), nil
}

// ResumptionSecret exposes the resumption master secret; TCPLS derives
// JOIN authentication keys from it (the cookies of Fig. 2 prove
// possession of the session, like RFC 8446 resumption PSKs do).
func (c *Conn) ResumptionSecret() ([]byte, error) {
	if !c.hsDone {
		return nil, ErrHandshakeRequired
	}
	return c.resumptionMS, nil
}

// Read reads application data, handling post-handshake messages
// (session tickets) transparently.
func (c *Conn) Read(p []byte) (int, error) {
	c.muRead.Lock()
	defer c.muRead.Unlock()
	for c.appReadOff == len(c.appReadBuf) {
		bufpool.Put(c.appReadBuf)
		c.appReadBuf, c.appReadOff = nil, 0
		var one [1]InRecord
		if n, err := c.readRecords(one[:]); n == 0 {
			return 0, err
		}
		c.appReadBuf = one[0].Payload
	}
	n := copy(p, c.appReadBuf[c.appReadOff:])
	c.appReadOff += n
	return n, nil
}

// Write writes application data, fragmenting into records.
func (c *Conn) Write(p []byte) (int, error) {
	c.muWrite.Lock()
	defer c.muWrite.Unlock()
	if err := c.handshakeNeeded(); err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		n := min(len(p), MaxPlaintext)
		if err := c.rl.writeRecord(RecordTypeApplicationData, p[:n]); err != nil {
			return total, err
		}
		p = p[n:]
		total += n
	}
	return total, nil
}

func (c *Conn) handshakeNeeded() error {
	if c.hsDone {
		return nil
	}
	if c.hsErr != nil {
		return c.hsErr
	}
	return ErrHandshakeRequired
}

// Close sends close_notify and closes the underlying connection.
func (c *Conn) Close() error {
	c.muWrite.Lock()
	if !c.closed {
		c.closed = true
		if c.hsDone {
			c.rl.sendAlert(alertCloseNotify)
		}
	}
	c.muWrite.Unlock()
	return c.conn.Close()
}

// CloseWrite sends close_notify without closing the transport.
func (c *Conn) CloseWrite() error {
	c.muWrite.Lock()
	defer c.muWrite.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.rl.sendAlert(alertCloseNotify)
}

func alertToError(payload []byte) error {
	if len(payload) == 2 && payload[1] == alertCloseNotify {
		return io.EOF
	}
	if len(payload) == 2 {
		return &AlertError{Description: payload[1]}
	}
	return errors.New("tls13: malformed alert")
}

// handlePostHandshake processes handshake messages after the handshake
// (session tickets; anything else is an error).
func (c *Conn) handlePostHandshake(payload []byte) error {
	c.hsBuf = append(c.hsBuf, payload...)
	for len(c.hsBuf) >= 4 {
		typ, body, _, rest, err := splitHandshakeMessage(c.hsBuf)
		if err != nil {
			return nil // wait for more bytes
		}
		c.hsBuf = rest
		switch typ {
		case typeNewSessionTicket:
			if !c.isClient {
				return errors.New("tls13: unexpected NewSessionTicket from client")
			}
			t, err := parseNewSessionTicket(body)
			if err != nil {
				return err
			}
			psk := c.suite.expandLabel(c.resumptionMS, "resumption", t.nonce, c.suite.hashLen)
			sess := &ClientSession{
				Ticket:       t.ticket,
				PSK:          psk,
				SuiteID:      c.suite.id,
				MaxEarlyData: t.maxEarlyData,
				ALPN:         c.state.ALPN,
				AgeAdd:       t.ageAdd,
				ReceivedAt:   time.Now(),
			}
			c.sessions = append(c.sessions, sess)
			if c.cfg.OnNewSession != nil {
				c.cfg.OnNewSession(sess)
			}
		default:
			return fmt.Errorf("tls13: unexpected post-handshake message %d", typ)
		}
	}
	return nil
}

// readHandshakeMessage reads the next handshake message during the
// handshake, buffering across records. Alerts become errors.
func (c *Conn) readHandshakeMessage() (uint8, []byte, []byte, error) {
	for {
		if len(c.hsBuf) >= 4 {
			typ, body, raw, rest, err := splitHandshakeMessage(c.hsBuf)
			if err == nil {
				c.hsBuf = rest
				return typ, body, raw, nil
			}
		}
		_, rtyp, payload, err := c.rl.readRecordAny()
		if err != nil {
			return 0, nil, nil, err
		}
		switch {
		case rtyp == RecordTypeHandshake:
			c.hsBuf = append(c.hsBuf, payload...)
		case rtyp == RecordTypeAlert:
			err = alertToError(payload)
		case rtyp != RecordTypeApplicationData:
			err = fmt.Errorf("tls13: unexpected record type %d during handshake", rtyp)
		case !c.earlyAccepted:
			err = errors.New("tls13: unexpected application data during handshake")
		case len(c.earlyBuf)+len(payload) > c.earlyBudget:
			err = errors.New("tls13: early data exceeds budget")
		default:
			// Early data arriving while we expect handshake messages.
			c.earlyBuf = append(c.earlyBuf, payload...)
		}
		bufpool.Put(payload)
		if err != nil {
			return 0, nil, nil, err
		}
	}
}

// EarlyData returns the 0-RTT bytes the server accepted before the
// handshake finished.
func (c *Conn) EarlyData() []byte { return c.earlyBuf }

// writeHandshakeRecord sends one handshake message as a record (or
// several when larger than a record).
func (c *Conn) writeHandshakeRecord(msg []byte) error {
	for len(msg) > 0 {
		n := min(len(msg), MaxPlaintext)
		if err := c.rl.writeRecord(RecordTypeHandshake, msg[:n]); err != nil {
			return err
		}
		msg = msg[n:]
	}
	return nil
}

func randomBytes(n int) []byte {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic("tls13: rand: " + err.Error())
	}
	return b
}
