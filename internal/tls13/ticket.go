package tls13

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"sync"
	"time"
)

// ticketPayload is the server-side state sealed inside a session ticket.
type ticketPayload struct {
	suiteID      uint16
	psk          []byte
	maxEarlyData uint32
	issuedAt     int64 // unix seconds
}

// ticketStore is the server state that must outlive a connection for
// resumption to work: the AEAD tickets are sealed under and the set of
// tickets already used for 0-RTT.
type ticketStore struct {
	aead   cipher.AEAD
	replay replayFilter // sharded 0-RTT anti-replay set
}

// defaultTicketLifetime is 7 days, the RFC 8446 maximum.
const defaultTicketLifetime = 7 * 24 * time.Hour

// ticketStore returns the Config's store, creating it — and drawing a
// random key if TicketKey is zero — on first use. A Clone arrives with
// its parent's store already in place.
func (cfg *Config) ticketStore() *ticketStore {
	cfg.ticketsOnce.Do(func() {
		if cfg.tickets != nil {
			return
		}
		key := cfg.TicketKey
		var zero [32]byte
		if key == zero {
			if _, err := rand.Read(key[:]); err != nil {
				panic("tls13: rand: " + err.Error())
			}
		}
		block, err := aes.NewCipher(key[:16])
		if err != nil {
			panic(err)
		}
		aead, err := cipher.NewGCM(block)
		if err != nil {
			panic(err)
		}
		cfg.tickets = &ticketStore{aead: aead}
	})
	return cfg.tickets
}

// sealTicket encrypts the payload into an opaque ticket identity.
func (cfg *Config) sealTicket(tp *ticketPayload) []byte {
	tk := cfg.ticketStore()
	var plain []byte
	plain = binary.BigEndian.AppendUint16(plain, tp.suiteID)
	plain = binary.BigEndian.AppendUint32(plain, tp.maxEarlyData)
	plain = binary.BigEndian.AppendUint64(plain, uint64(tp.issuedAt))
	plain = append(plain, uint8(len(tp.psk)))
	plain = append(plain, tp.psk...)
	nonce := randomBytes(12)
	out := append([]byte(nil), nonce...)
	return tk.aead.Seal(out, nonce, plain, nil)
}

// decryptTicket opens a ticket identity; reports false for garbage,
// foreign, or expired tickets.
func (cfg *Config) decryptTicket(identity []byte) (*ticketPayload, bool) {
	tk := cfg.ticketStore()
	if len(identity) < 12 {
		return nil, false
	}
	plain, err := tk.aead.Open(nil, identity[:12], identity[12:], nil)
	if err != nil {
		return nil, false
	}
	if len(plain) < 15 {
		return nil, false
	}
	tp := &ticketPayload{
		suiteID:      binary.BigEndian.Uint16(plain),
		maxEarlyData: binary.BigEndian.Uint32(plain[2:]),
		issuedAt:     int64(binary.BigEndian.Uint64(plain[6:])),
	}
	n := int(plain[14])
	if len(plain) != 15+n {
		return nil, false
	}
	tp.psk = plain[15:]
	if time.Since(time.Unix(tp.issuedAt, 0)) > defaultTicketLifetime {
		return nil, false
	}
	return tp, true
}

// replayShards splits the 0-RTT anti-replay set: ticket identities are
// AEAD ciphertext (uniformly distributed), so a cheap FNV mix spreads
// them evenly and concurrent resumption handshakes only collide on a
// lock when they land in the same shard — a Config-global mutex here
// serializes every 0-RTT attempt on a busy listener.
const replayShards = 16

// replayFilter is the sharded single-use set behind markTicketUsed.
type replayFilter struct {
	shards [replayShards]replayShard
}

type replayShard struct {
	mu   sync.Mutex
	used map[string]bool
}

func (f *replayFilter) shardFor(identity []byte) *replayShard {
	// FNV-1a over the identity; any byte slice hashes, including empty.
	h := uint32(2166136261)
	for _, b := range identity {
		h ^= uint32(b)
		h *= 16777619
	}
	return &f.shards[h&(replayShards-1)]
}

func (f *replayFilter) markUsed(identity []byte) bool {
	sh := f.shardFor(identity)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.used == nil {
		sh.used = make(map[string]bool)
	}
	key := string(identity)
	if sh.used[key] {
		return false
	}
	sh.used[key] = true
	return true
}

// markTicketUsed implements single-use anti-replay for 0-RTT: the first
// caller wins, replays are rejected. The window is the lifetime of the
// Config and its Clones.
func (cfg *Config) markTicketUsed(identity []byte) bool {
	return cfg.ticketStore().replay.markUsed(identity)
}

// sendSessionTicket issues one NewSessionTicket post-handshake.
func (c *Conn) sendSessionTicket() error {
	nonce := randomBytes(8)
	psk := c.suite.expandLabel(c.resumptionMS, "resumption", nonce, c.suite.hashLen)
	identity := c.cfg.sealTicket(&ticketPayload{
		suiteID:      c.suite.id,
		psk:          psk,
		maxEarlyData: c.cfg.MaxEarlyData,
		issuedAt:     time.Now().Unix(),
	})
	ageAddBytes := randomBytes(4)
	t := &sessionTicket{
		lifetime:     uint32(defaultTicketLifetime / time.Second),
		ageAdd:       binary.BigEndian.Uint32(ageAddBytes),
		nonce:        nonce,
		ticket:       identity,
		maxEarlyData: c.cfg.MaxEarlyData,
	}
	return c.writeHandshakeRecord(t.marshal())
}
