package security

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"zcover/internal/telemetry"
)

// Process-wide S2 transport metrics (the S0 counterparts live in s0.go).
var (
	mS2Encrypt  = telemetry.Default().Counter("security_s2_encrypt_total")
	mS2Decrypt  = telemetry.Default().Counter("security_s2_decrypt_total")
	mS2AuthFail = telemetry.Default().Counter("security_s2_auth_fail_total")
	mS2Desync   = telemetry.Default().Counter("security_s2_desync_total")
	mS2Resync   = telemetry.Default().Counter("security_s2_resync_total")
)

// S2 key-exchange and encapsulation. The flow mirrors the Security 2
// specification: the two nodes agree on a shared secret with Curve25519
// ECDH, derive a temporary key with CKDF (CMAC-based), transfer the
// permanent network key under it, and then protect application traffic
// with AES-128-CCM using SPAN-synchronised nonces.

// S2 key-derivation constants (CKDF personalisation strings).
var (
	ckdfTempExtract = []byte{0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33}
	ckdfCCMLabel    = []byte("CCM-KEY-S2-ZWAVE")
	ckdfNonceLabel  = []byte("NONCE-PRK-S2-ZWV")
)

// EntropySize is the size of each SPAN entropy input in bytes.
const EntropySize = 16

// Keypair is an ECDH key pair used during S2 bootstrapping (KEX).
type Keypair struct {
	private *ecdh.PrivateKey
}

// GenerateKeypair creates a Curve25519 key pair from the given entropy
// source (crypto/rand.Reader in production, a seeded reader in tests).
// It reads exactly 32 bytes: ecdh's GenerateKey may read one more byte
// at random (randutil.MaybeReadByte), which would make every later draw
// from a seeded reader differ from run to run.
func GenerateKeypair(rng io.Reader) (*Keypair, error) {
	if rng == nil {
		rng = rand.Reader
	}
	var seed [32]byte
	if _, err := io.ReadFull(rng, seed[:]); err != nil {
		return nil, fmt.Errorf("security: generating S2 keypair: %w", err)
	}
	priv, err := ecdh.X25519().NewPrivateKey(seed[:])
	if err != nil {
		return nil, fmt.Errorf("security: generating S2 keypair: %w", err)
	}
	return &Keypair{private: priv}, nil
}

// Public returns the 32-byte public key sent in S2 PUBLIC_KEY_REPORT.
func (k *Keypair) Public() []byte { return k.private.PublicKey().Bytes() }

// SharedSecret runs X25519 against a peer's public key.
func (k *Keypair) SharedSecret(peerPublic []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPublic)
	if err != nil {
		return nil, fmt.Errorf("security: bad S2 peer public key: %w", err)
	}
	secret, err := k.private.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("security: S2 ECDH: %w", err)
	}
	return secret, nil
}

// DeriveTempKey reduces an ECDH shared secret to the 16-byte temporary key
// that protects the network-key transfer (CKDF-TempExtract).
func DeriveTempKey(sharedSecret []byte) ([]byte, error) {
	if len(sharedSecret) != 32 {
		return nil, fmt.Errorf("security: S2 shared secret must be 32 bytes, got %d", len(sharedSecret))
	}
	prk := mustCMAC(ckdfTempExtract, sharedSecret)
	return prk, nil
}

// NewNetworkKey draws a random 16-byte S2 network key.
func NewNetworkKey(rng io.Reader) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(rng, key); err != nil {
		return nil, fmt.Errorf("security: drawing network key: %w", err)
	}
	return key, nil
}

// Flow direction of an S2 message within a session.
type Flow int

// Flows. Enum starts at 1.
const (
	// FlowAtoB is traffic from the session's A endpoint to B.
	FlowAtoB Flow = iota + 1
	// FlowBtoA is traffic from B to A.
	FlowBtoA
)

// S2 session errors.
var (
	// ErrS2Auth indicates decapsulation failed authentication.
	ErrS2Auth = errors.New("security: S2 decapsulation failed")
	// ErrS2Desync indicates the SPAN sequence numbers no longer line up
	// and the receiver must re-synchronise (SOS nonce report).
	ErrS2Desync = errors.New("security: S2 SPAN out of sync")
)

// Session is one endpoint's view of an established S2 security session.
// Both peers construct a Session from the same network key and the same
// pair of entropy inputs; per-flow counters then stay in lockstep as long
// as traffic is delivered reliably (retransmission is the MAC layer's job).
//
// Session is not safe for concurrent use; the simulation is single-threaded.
type Session struct {
	ccmKey []byte
	// aead and meiCtx are the session's cached crypto contexts: the CCM
	// AEAD under ccmKey and the CMAC context of the mixed entropy input.
	// Both are immutable and resolved once at NewSession, so per-message
	// encapsulation pays no key expansion.
	aead     *ccm
	meiCtx   *keyContext
	mei      []byte // mixed entropy input: the SPAN personalisation
	ctr      map[Flow]uint32
	lastSeq  map[Flow]byte
	haveSeq  map[Flow]bool
	nextSeqA byte // sender sequence counter for FlowAtoB
	nextSeqB byte
	// recoveryWindow, when positive, lets Decapsulate search this many
	// SPAN counters ahead after an authentication failure — the local
	// equivalent of the SOS nonce-report exchange a receiver performs when
	// frame loss has desynchronised the nonce stream.
	recoveryWindow int
}

// SetRecoveryWindow enables SPAN desync recovery: after an authentication
// failure, Decapsulate retries up to window counters ahead of the expected
// one and, on success, fast-forwards the flow to resynchronise. Zero (the
// default) keeps the strict single-nonce behaviour.
func (s *Session) SetRecoveryWindow(window int) { s.recoveryWindow = window }

// NewSession derives a session from the 16-byte network key and the two
// SPAN entropy inputs (sender EI from the encapsulation extension, receiver
// EI from the NONCE_REPORT). Both endpoints must pass identical arguments.
func NewSession(networkKey, entropyA, entropyB []byte) (*Session, error) {
	if len(networkKey) != KeySize {
		return nil, fmt.Errorf("security: network key must be %d bytes, got %d", KeySize, len(networkKey))
	}
	if len(entropyA) != EntropySize || len(entropyB) != EntropySize {
		return nil, fmt.Errorf("security: SPAN entropy inputs must be %d bytes", EntropySize)
	}
	ccmKey := mustCMAC(networkKey, ckdfCCMLabel)
	noncePRK := mustCMAC(networkKey, ckdfNonceLabel)
	mixed := make([]byte, 0, 2*EntropySize)
	mixed = append(mixed, entropyA...)
	mixed = append(mixed, entropyB...)
	mei := mustCMAC(noncePRK, mixed)
	return &Session{
		ccmKey:  ccmKey,
		aead:    mustContextFor(ccmKey).aead,
		meiCtx:  mustContextFor(mei),
		mei:     mei,
		ctr:     map[Flow]uint32{FlowAtoB: 0, FlowBtoA: 0},
		lastSeq: map[Flow]byte{},
		haveSeq: map[Flow]bool{},
	}, nil
}

// nonceFor derives the 13-byte CCM nonce for message number n of a flow
// into the caller's buffer (no allocation on the per-message path).
func (s *Session) nonceFor(nonce *[CCMNonceSize]byte, flow Flow, n uint32) {
	msg := [5]byte{byte(flow), byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
	sc := getScratch()
	cmacTo(&sc.ks, s.meiCtx, sc, msg[:]) // ks doubles as the CMAC output here
	copy(nonce[:], sc.ks[:CCMNonceSize])
	putScratch(sc)
}

// appendAAD assembles the full CCM AAD (caller AAD plus sequence number and
// extension flags) into the caller's scratch buffer. S2 AAD is MAC-header
// sized, so the scratch never overflows in practice; an oversized AAD falls
// back to an allocation.
func appendAAD(scratch *[2 * BlockSize]byte, aad []byte, seq, extFlags byte) []byte {
	var full []byte
	if len(aad)+2 <= len(scratch) {
		full = scratch[:0]
	} else {
		full = make([]byte, 0, len(aad)+2)
	}
	full = append(full, aad...)
	return append(full, seq, extFlags)
}

// Encapsulate protects an application payload flowing in the given
// direction. It returns the S2 MESSAGE_ENCAPSULATION application payload:
// [COMMAND_CLASS_SECURITY_2, MESSAGE_ENCAPSULATION, seq, extFlags, ct||tag].
// aad binds the MAC-header fields (home ID, src, dst) into the tag.
func (s *Session) Encapsulate(flow Flow, aad, plaintext []byte) ([]byte, error) {
	seq := s.nextSeq(flow)
	n := s.ctr[flow]
	s.ctr[flow] = n + 1

	var nonce [CCMNonceSize]byte
	s.nonceFor(&nonce, flow, n)
	var aadScratch [2 * BlockSize]byte
	fullAAD := appendAAD(&aadScratch, aad, seq, 0x00)

	// The returned payload is the only allocation: the AEAD seals straight
	// into its spare capacity.
	out := make([]byte, 0, 4+len(plaintext)+CCMTagSize)
	out = append(out, 0x9F, 0x03, seq, 0x00)
	out = s.aead.Seal(out, nonce[:], plaintext, fullAAD)
	mS2Encrypt.Inc()
	return out, nil
}

// Decapsulate reverses Encapsulate for a payload received on the given
// flow. It enforces SPAN ordering: a replayed or reordered sequence number
// yields ErrS2Desync; a forged or corrupted ciphertext yields ErrS2Auth.
func (s *Session) Decapsulate(flow Flow, aad, payload []byte) ([]byte, error) {
	if len(payload) < 4+CCMTagSize {
		mS2AuthFail.Inc()
		return nil, fmt.Errorf("%w: payload too short (%d bytes)", ErrS2Auth, len(payload))
	}
	if payload[0] != 0x9F || payload[1] != 0x03 {
		mS2AuthFail.Inc()
		return nil, fmt.Errorf("%w: not an S2 message encapsulation", ErrS2Auth)
	}
	seq, extFlags := payload[2], payload[3]
	if s.haveSeq[flow] && seq == s.lastSeq[flow] {
		mS2Desync.Inc()
		return nil, fmt.Errorf("%w: duplicate sequence %d", ErrS2Desync, seq)
	}

	n := s.ctr[flow]
	var nonce [CCMNonceSize]byte
	s.nonceFor(&nonce, flow, n)
	var aadScratch [2 * BlockSize]byte
	fullAAD := appendAAD(&aadScratch, aad, seq, extFlags)
	pt, err := s.aead.Open(nil, nonce[:], payload[4:], fullAAD)
	if err != nil {
		// A lost frame leaves the sender's counter ahead of ours, so every
		// later frame fails against the expected nonce. With a recovery
		// window, probe forward counters; a hit means the message is
		// genuine and the flow fast-forwards past the gap.
		for skip := 1; skip <= s.recoveryWindow; skip++ {
			s.nonceFor(&nonce, flow, n+uint32(skip))
			if pt, err2 := s.aead.Open(nil, nonce[:], payload[4:], fullAAD); err2 == nil {
				s.ctr[flow] = n + uint32(skip) + 1
				s.lastSeq[flow] = seq
				s.haveSeq[flow] = true
				mS2Resync.Inc()
				mS2Decrypt.Inc()
				return pt, nil
			}
		}
		mS2AuthFail.Inc()
		return nil, fmt.Errorf("%w: %v", ErrS2Auth, err)
	}
	s.ctr[flow] = n + 1
	s.lastSeq[flow] = seq
	s.haveSeq[flow] = true
	mS2Decrypt.Inc()
	return pt, nil
}

// Resync resets a flow's SPAN counter to the peer's announced value after
// an SOS nonce exchange.
func (s *Session) Resync(flow Flow, counter uint32) {
	s.ctr[flow] = counter
	s.haveSeq[flow] = false
}

// Counter exposes the current SPAN counter of a flow (used by SOS resync).
func (s *Session) Counter(flow Flow) uint32 { return s.ctr[flow] }

// nextSeq hands out the per-flow sender sequence byte.
func (s *Session) nextSeq(flow Flow) byte {
	if flow == FlowAtoB {
		s.nextSeqA++
		return s.nextSeqA
	}
	s.nextSeqB++
	return s.nextSeqB
}

// IsEncapsulation reports whether an application payload is an S2 message
// encapsulation (what a sniffer can tell without keys).
func IsEncapsulation(payload []byte) bool {
	return len(payload) >= 2 && payload[0] == 0x9F && payload[1] == 0x03
}
