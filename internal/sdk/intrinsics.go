package sdk

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"sgxelide/internal/evm"
	"sgxelide/internal/sgx"
)

// Intrinsic numbers for the trusted crypto/platform library (tcrypto).
const (
	IntrinAESGCMEncrypt = 0x100
	IntrinAESGCMDecrypt = 0x101
	IntrinReadRand      = 0x102
	IntrinSHA256        = 0x103
	IntrinCreateReport  = 0x104
	IntrinGetSealKey    = 0x105
	IntrinECDHKeypair   = 0x106
	IntrinECDHShared    = 0x107
	IntrinZeroize       = 0x108
)

// ReportBlobSize is the serialized size of an sgx.Report as seen by enclave
// C code (sgx_create_report's output buffer).
const ReportBlobSize = 200

// MarshalReport serializes a report into the enclave-visible layout.
func MarshalReport(r *sgx.Report) []byte {
	out := make([]byte, ReportBlobSize)
	copy(out[0:32], r.MrEnclave[:])
	copy(out[32:64], r.MrSigner[:])
	binary.LittleEndian.PutUint16(out[64:], r.ProdID)
	copy(out[72:136], r.Data[:])
	copy(out[136:168], r.TargetInfo[:])
	copy(out[168:200], r.MAC[:])
	return out
}

// UnmarshalReport parses the enclave-visible report layout.
func UnmarshalReport(b []byte) *sgx.Report {
	if len(b) < ReportBlobSize {
		return nil
	}
	r := &sgx.Report{}
	copy(r.MrEnclave[:], b[0:32])
	copy(r.MrSigner[:], b[32:64])
	r.ProdID = binary.LittleEndian.Uint16(b[64:])
	copy(r.Data[:], b[72:136])
	copy(r.TargetInfo[:], b[136:168])
	copy(r.MAC[:], b[168:200])
	return r
}

// GCMIVSize and GCMMACSize are the AES-GCM parameter sizes used across the
// enclave, the authentication server, and the secret files.
const (
	GCMKeySize = 16
	GCMIVSize  = 12
	GCMMACSize = 16
)

// AESGCMSeal encrypts plaintext, returning ciphertext and MAC separately
// (the SGX SDK's sgx_rijndael128GCM_encrypt convention).
func AESGCMSeal(key, iv, plaintext []byte) (ct, mac []byte, err error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, err
	}
	sealed := gcm.Seal(nil, iv, plaintext, nil)
	n := len(sealed) - GCMMACSize
	return sealed[:n], sealed[n:], nil
}

// AESGCMOpen decrypts ciphertext with its MAC.
func AESGCMOpen(key, iv, ct, mac []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return gcm.Open(nil, iv, append(append([]byte{}, ct...), mac...), nil)
}

// installIntrinsics wires the tcrypto stubs to their implementations. The
// handlers execute "as" the enclave: all memory access goes through the
// enclave address space, so EPCM permissions still apply.
func installIntrinsics(e *Enclave) {
	vm := e.VM
	arg := func(i int) uint64 { return vm.Reg[evm.RegA0+i] }
	setRet := func(v uint64) { vm.Reg[evm.RegRet] = v }
	fail := func(msg string) *evm.Fault {
		return &evm.Fault{Kind: evm.FaultIntrinsic, Msg: msg}
	}
	// length checks an enclave-supplied buffer length before anything is
	// sized from it: the n bytes at addr must lie in ELRANGE or in
	// untrusted memory, or the enclave faults as if it had touched them.
	length := func(addr, n uint64) (int, *evm.Fault) {
		if !e.Space.Contains(addr, n) {
			return 0, &evm.Fault{Kind: evm.FaultBadAddress, Addr: addr,
				Msg: fmt.Sprintf("intrinsic buffer of %d bytes outside enclave and untrusted memory", n)}
		}
		return int(n), nil
	}

	vm.Intrinsics = map[uint16]evm.Intrinsic{
		IntrinAESGCMEncrypt: func(m *evm.VM) *evm.Fault {
			n, f := length(arg(1), arg(2))
			if f != nil {
				return f
			}
			key, f := m.ReadBytes(arg(0), GCMKeySize)
			if f != nil {
				return f
			}
			src, f := m.ReadBytes(arg(1), n)
			if f != nil {
				return f
			}
			iv, f := m.ReadBytes(arg(4), GCMIVSize)
			if f != nil {
				return f
			}
			ct, mac, err := AESGCMSeal(key, iv, src)
			if err != nil {
				return fail("aes-gcm: " + err.Error())
			}
			defer Wipe(key)
			defer Wipe(src)
			if f := m.WriteBytes(arg(3), ct); f != nil {
				return f
			}
			if f := m.WriteBytes(arg(5), mac); f != nil {
				return f
			}
			setRet(0)
			return nil
		},

		IntrinAESGCMDecrypt: func(m *evm.VM) *evm.Fault {
			n, f := length(arg(1), arg(2))
			if f != nil {
				return f
			}
			key, f := m.ReadBytes(arg(0), GCMKeySize)
			if f != nil {
				return f
			}
			ct, f := m.ReadBytes(arg(1), n)
			if f != nil {
				return f
			}
			iv, f := m.ReadBytes(arg(4), GCMIVSize)
			if f != nil {
				return f
			}
			mac, f := m.ReadBytes(arg(5), GCMMACSize)
			if f != nil {
				return f
			}
			pt, err := AESGCMOpen(key, iv, ct, mac)
			if err != nil {
				setRet(1) // SGX_ERROR_MAC_MISMATCH
				return nil
			}
			defer Wipe(pt)
			defer Wipe(key)
			if f := m.WriteBytes(arg(3), pt); f != nil {
				return f
			}
			setRet(0)
			return nil
		},

		IntrinReadRand: func(m *evm.VM) *evm.Fault {
			n, f := length(arg(0), arg(1))
			if f != nil {
				return f
			}
			buf := make([]byte, n)
			if _, err := rand.Read(buf); err != nil {
				return fail("rdrand: " + err.Error())
			}
			if f := m.WriteBytes(arg(0), buf); f != nil {
				return f
			}
			setRet(0)
			return nil
		},

		IntrinSHA256: func(m *evm.VM) *evm.Fault {
			n, f := length(arg(0), arg(1))
			if f != nil {
				return f
			}
			src, f := m.ReadBytes(arg(0), n)
			if f != nil {
				return f
			}
			sum := sha256.Sum256(src)
			if f := m.WriteBytes(arg(2), sum[:]); f != nil {
				return f
			}
			setRet(0)
			return nil
		},

		IntrinCreateReport: func(m *evm.VM) *evm.Fault {
			target, f := m.ReadBytes(arg(0), 32)
			if f != nil {
				return f
			}
			data, f := m.ReadBytes(arg(1), sgx.ReportDataSize)
			if f != nil {
				return f
			}
			var ti [32]byte
			copy(ti[:], target)
			var rd [sgx.ReportDataSize]byte
			copy(rd[:], data)
			rep, err := e.Host.Platform.EReport(e.Encl, ti, rd)
			if err != nil {
				return fail("ereport: " + err.Error())
			}
			if f := m.WriteBytes(arg(2), MarshalReport(rep)); f != nil {
				return f
			}
			setRet(0)
			return nil
		},

		IntrinGetSealKey: func(m *evm.VM) *evm.Fault {
			policy := sgx.KeyPolicy(arg(0))
			key, err := e.Host.Platform.EGetKeySeal(e.Encl, policy)
			if err != nil {
				return fail("egetkey: " + err.Error())
			}
			if f := m.WriteBytes(arg(1), key); f != nil {
				return f
			}
			setRet(0)
			return nil
		},

		IntrinECDHKeypair: func(m *evm.VM) *evm.Fault {
			priv, err := ecdh.X25519().GenerateKey(rand.Reader)
			if err != nil {
				return fail("ecdh: " + err.Error())
			}
			if f := m.WriteBytes(arg(0), priv.Bytes()); f != nil {
				return f
			}
			if f := m.WriteBytes(arg(1), priv.PublicKey().Bytes()); f != nil {
				return f
			}
			setRet(0)
			return nil
		},

		IntrinECDHShared: func(m *evm.VM) *evm.Fault {
			privB, f := m.ReadBytes(arg(0), 32)
			if f != nil {
				return f
			}
			peerB, f := m.ReadBytes(arg(1), 32)
			if f != nil {
				return f
			}
			key, err := DeriveChannelKey(privB, peerB)
			if err != nil {
				setRet(1)
				return nil
			}
			defer Wipe(key)
			defer Wipe(privB)
			if f := m.WriteBytes(arg(2), key); f != nil {
				return f
			}
			setRet(0)
			return nil
		},

		// The SDK's memset_s: zeros go through the enclave address space,
		// so a page without W faults exactly as an enclave store would,
		// and nothing the compiler sees can elide the writes.
		IntrinZeroize: func(m *evm.VM) *evm.Fault {
			if f := m.ZeroBytes(arg(0), arg(1)); f != nil {
				return f
			}
			setRet(0)
			return nil
		},
	}

	// The AES-GCM intrinsics are the only observable boundary of the
	// enclave-internal decrypt+MAC-verify phase, so they get spans of their
	// own ("decrypt"/"encrypt" with the payload size) parented to whatever
	// dispatch is in flight. With no tracer the current span is nil and the
	// wrapper is a couple of nil checks.
	traced := func(name string, inner evm.Intrinsic) evm.Intrinsic {
		return func(m *evm.VM) *evm.Fault {
			sp := e.Host.cur.Child(name)
			sp.SetInt("bytes", int64(arg(2)))
			f := inner(m)
			if f != nil {
				sp.SetError(fmt.Errorf("intrinsic fault: %s", f.Msg))
			} else if ret := m.Reg[evm.RegRet]; ret != 0 {
				sp.SetInt("ret", int64(ret)) // e.g. MAC mismatch
			}
			sp.End()
			return f
		}
	}
	vm.Intrinsics[IntrinAESGCMEncrypt] = traced("encrypt", vm.Intrinsics[IntrinAESGCMEncrypt])
	vm.Intrinsics[IntrinAESGCMDecrypt] = traced("decrypt", vm.Intrinsics[IntrinAESGCMDecrypt])
}

// DeriveChannelKey computes the AES-128 channel key from an X25519 private
// key and a peer public key: SHA-256(shared)[:16]. The authentication
// server uses the same derivation.
func DeriveChannelKey(priv, peerPub []byte) ([]byte, error) {
	sk, err := ecdh.X25519().NewPrivateKey(priv)
	if err != nil {
		return nil, err
	}
	pk, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return nil, err
	}
	shared, err := sk.ECDH(pk)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(shared)
	return sum[:GCMKeySize], nil
}

// GenerateECDHKeypair returns a fresh X25519 keypair (server side helper).
func GenerateECDHKeypair() (priv, pub []byte, err error) {
	key, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	return key.Bytes(), key.PublicKey().Bytes(), nil
}
