package tls13

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestParsersNeverPanicOnGarbage throws random bytes at every handshake
// message parser: malformed input must return errors, not panic — these
// parsers face attacker-controlled bytes.
func TestParsersNeverPanicOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	parsers := []func([]byte){
		func(b []byte) { parseClientHello(b) },
		func(b []byte) { parseServerHello(b) },
		func(b []byte) { parseEncryptedExtensions(b) },
		func(b []byte) { parseCertificate(b) },
		func(b []byte) { parseCertificateVerify(b) },
		func(b []byte) { parseNewSessionTicket(b) },
		func(b []byte) { parseExtensions(b) },
		func(b []byte) { splitHandshakeMessage(b) },
	}
	for i := 0; i < 2000; i++ {
		n := rng.Intn(300)
		b := make([]byte, n)
		rng.Read(b)
		for _, p := range parsers {
			p(b) // must not panic
		}
	}
}

// TestClientHelloRoundTrip checks the CH codec against itself.
func TestClientHelloRoundTrip(t *testing.T) {
	ch := &clientHello{
		random:       randomBytes(32),
		sessionID:    randomBytes(32),
		cipherSuites: []uint16{TLS_AES_128_GCM_SHA256, TLS_AES_256_GCM_SHA384},
	}
	var w builder
	w.vec(1, func(w *builder) { w.u16(VersionTLS13) })
	ch.extensions = append(ch.extensions, Extension{extSupportedVersions, w.b})
	w = builder{}
	w.vec(2, func(w *builder) {
		w.u16(groupX25519)
		w.vec(2, func(w *builder) { w.bytes(make([]byte, 32)) })
	})
	ch.extensions = append(ch.extensions, Extension{extKeyShare, w.b})
	ch.extensions = append(ch.extensions, Extension{ExtTCPLS, []byte{1, 2, 3}})

	raw := ch.marshal()
	typ, body, full, rest, err := splitHandshakeMessage(raw)
	if err != nil || typ != typeClientHello || len(rest) != 0 || !bytes.Equal(full, raw) {
		t.Fatalf("split: %d %v", typ, err)
	}
	got, err := parseClientHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.random, ch.random) || len(got.cipherSuites) != 2 {
		t.Fatal("round trip mismatch")
	}
	if got.keyShareX25519 == nil {
		t.Fatal("key share lost")
	}
	if !bytes.Equal(got.tcpls, []byte{1, 2, 3}) {
		t.Fatal("tcpls extension lost")
	}
	has13 := false
	for _, v := range got.versions {
		if v == VersionTLS13 {
			has13 = true
		}
	}
	if !has13 {
		t.Fatal("supported_versions lost")
	}
}

// TestVectorBuilders exercises the 1/2/3-byte vector builder/parser pair.
func TestVectorBuilders(t *testing.T) {
	f := func(payload []byte, lenBytesSeed uint8) bool {
		lenBytes := int(lenBytesSeed%3) + 1
		if lenBytes == 1 && len(payload) > 255 {
			payload = payload[:255]
		}
		var w builder
		w.vec(lenBytes, func(w *builder) { w.bytes(payload) })
		p := parser{w.b}
		var got []byte
		if !p.vec(lenBytes, &got) || !p.empty() {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTicketSealRoundTrip pins the ticket sealing: decrypts what it
// seals, rejects tampered identities, expires old tickets.
func TestTicketSealRoundTrip(t *testing.T) {
	cfg := &Config{}
	tp := &ticketPayload{
		suiteID:      TLS_AES_128_GCM_SHA256,
		psk:          randomBytes(32),
		maxEarlyData: 1024,
		issuedAt:     timeNowUnix(),
	}
	identity := cfg.sealTicket(tp)
	got, ok := cfg.decryptTicket(identity)
	if !ok || got.suiteID != tp.suiteID || !bytes.Equal(got.psk, tp.psk) || got.maxEarlyData != 1024 {
		t.Fatalf("round trip: %+v ok=%v", got, ok)
	}
	// Tampering flips a ciphertext byte: must be rejected.
	bad := append([]byte(nil), identity...)
	bad[len(bad)-1] ^= 1
	if _, ok := cfg.decryptTicket(bad); ok {
		t.Fatal("tampered ticket accepted")
	}
	// Expired tickets are rejected.
	old := &ticketPayload{suiteID: tp.suiteID, psk: tp.psk, issuedAt: timeNowUnix() - 8*24*3600}
	if _, ok := cfg.decryptTicket(cfg.sealTicket(old)); ok {
		t.Fatal("expired ticket accepted")
	}
	// A different Config (different random key) cannot open it.
	if _, ok := (&Config{}).decryptTicket(identity); ok {
		t.Fatal("foreign ticket key opened the ticket")
	}
}

// TestReplayFilterSingleUse pins the 0-RTT anti-replay set.
func TestReplayFilterSingleUse(t *testing.T) {
	cfg := &Config{}
	id := randomBytes(16)
	if !cfg.markTicketUsed(id) {
		t.Fatal("first use rejected")
	}
	if cfg.markTicketUsed(id) {
		t.Fatal("replay accepted")
	}
	if !cfg.markTicketUsed(randomBytes(16)) {
		t.Fatal("fresh ticket rejected")
	}
}

// TestReplayFilterConcurrent hammers the sharded anti-replay set from
// many goroutines: per identity exactly one caller may win, and
// distinct identities must never interfere — the single-use guarantee
// is what makes 0-RTT safe, so it must hold under handshake storms,
// not just sequentially.
func TestReplayFilterConcurrent(t *testing.T) {
	cfg := &Config{}
	const (
		identities = 64
		callers    = 8
	)
	ids := make([][]byte, identities)
	for i := range ids {
		ids[i] = randomBytes(16)
	}
	wins := make([]atomic.Int32, identities)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, id := range ids {
				if cfg.markTicketUsed(id) {
					wins[i].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for i := range wins {
		if n := wins[i].Load(); n != 1 {
			t.Fatalf("identity %d marked used %d times, want exactly 1", i, n)
		}
	}
	// Sanity: the identities landed on more than one shard (uniformly
	// random 16-byte identities across 16 shards miss a given shard with
	// probability ~(15/16)^64 ≈ 1.6%; all-on-one-shard is impossible in
	// practice and would mean the mixer is broken).
	shardsHit := 0
	shards := cfg.ticketStore().replay.shards[:]
	for i := range shards {
		if len(shards[i].used) > 0 {
			shardsHit++
		}
	}
	if shardsHit < 2 {
		t.Fatalf("all %d identities hashed to %d shard(s); mixer broken", identities, shardsHit)
	}
}

func timeNowUnix() int64 {
	return time.Now().Unix()
}
