// Package cryptoutil provides the signing infrastructure ParBlockchain
// nodes use to authenticate REQUEST, SEGMENT, SEAL, and COMMIT messages:
// ed25519 keypairs, a keyring mapping node identities to public keys, and
// a no-op signer for benchmarks that isolate protocol cost from
// cryptography cost.
package cryptoutil

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by signature verification.
var (
	// ErrUnknownSigner is returned when the keyring holds no key for the
	// claimed identity.
	ErrUnknownSigner = errors.New("cryptoutil: unknown signer")
	// ErrBadSignature is returned when the signature does not verify.
	ErrBadSignature = errors.New("cryptoutil: bad signature")
)

// Signer produces signatures on behalf of one node identity.
type Signer interface {
	// ID returns the node identity the signatures speak for.
	ID() string
	// Sign signs the given digest.
	Sign(digest []byte) []byte
}

// Verifier checks signatures against registered identities.
type Verifier interface {
	// Verify checks that sig is a valid signature by node id over digest.
	Verify(id string, digest, sig []byte) error
}

// KeyPair is an ed25519 signing identity for one node.
type KeyPair struct {
	id   string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// GenerateKeyPair creates a fresh ed25519 keypair bound to the node id.
func GenerateKeyPair(id string) (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: generating key for %s: %w", id, err)
	}
	return &KeyPair{id: id, pub: pub, priv: priv}, nil
}

// MustGenerateKeyPair is GenerateKeyPair for setup code where entropy
// exhaustion is not a recoverable condition.
func MustGenerateKeyPair(id string) *KeyPair {
	kp, err := GenerateKeyPair(id)
	if err != nil {
		panic(err)
	}
	return kp
}

// DeterministicKeyPair derives a keypair from the node identity alone, so
// every process in a demo cluster can reconstruct every node's public key
// without key distribution. FOR TESTS AND DEMOS ONLY: anyone who knows a
// node's ID can forge its signatures.
func DeterministicKeyPair(id string) *KeyPair {
	seed := sha256.Sum256([]byte("parblockchain-demo-key:" + id))
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &KeyPair{
		id:   id,
		pub:  priv.Public().(ed25519.PublicKey),
		priv: priv,
	}
}

// ID returns the node identity.
func (k *KeyPair) ID() string { return k.id }

// Public returns the public key for keyring registration.
func (k *KeyPair) Public() ed25519.PublicKey { return k.pub }

// Sign signs the digest with the node's private key.
func (k *KeyPair) Sign(digest []byte) []byte {
	return ed25519.Sign(k.priv, digest)
}

var _ Signer = (*KeyPair)(nil)

// KeyRing maps node identities to public keys and verifies signatures.
// The zero value is ready to use. KeyRing is safe for concurrent use.
type KeyRing struct {
	mu   sync.RWMutex
	keys map[string]ed25519.PublicKey
}

// NewKeyRing returns an empty keyring.
func NewKeyRing() *KeyRing {
	return &KeyRing{keys: make(map[string]ed25519.PublicKey)}
}

// Add registers (or replaces) the public key for a node identity.
func (r *KeyRing) Add(id string, pub ed25519.PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keys == nil {
		r.keys = make(map[string]ed25519.PublicKey)
	}
	r.keys[id] = append(ed25519.PublicKey(nil), pub...)
}

// Verify checks that sig is node id's signature over digest.
func (r *KeyRing) Verify(id string, digest, sig []byte) error {
	r.mu.RLock()
	pub, ok := r.keys[id]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSigner, id)
	}
	if !ed25519.Verify(pub, digest, sig) {
		return fmt.Errorf("%w: signer %s", ErrBadSignature, id)
	}
	return nil
}

var _ Verifier = (*KeyRing)(nil)

// NoopSigner implements Signer without cryptography. Benchmarks use it to
// measure protocol cost with signing disabled; the paired NoopVerifier
// accepts every signature.
type NoopSigner struct {
	// NodeID is the identity the signer claims.
	NodeID string
}

// ID returns the claimed identity.
func (s NoopSigner) ID() string { return s.NodeID }

// Sign returns a fixed one-byte placeholder signature.
func (s NoopSigner) Sign([]byte) []byte { return []byte{0xAA} }

var _ Signer = NoopSigner{}

// NoopVerifier accepts every signature. It pairs with NoopSigner in
// crypto-disabled benchmark configurations.
type NoopVerifier struct{}

// Verify always succeeds.
func (NoopVerifier) Verify(string, []byte, []byte) error { return nil }

var _ Verifier = NoopVerifier{}
