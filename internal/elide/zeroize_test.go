package elide

import (
	"encoding/binary"
	"errors"
	"testing"

	"sgxelide/internal/elf"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// secretWindow is the window size of the residue scan: a 32-byte run of
// elided code found outside the text section counts as a leak.
const secretWindow = 32

// secretWindows returns every 32-byte window of p's original text that
// does not also occur in the sanitized image (such a window is public
// anyway, e.g. a whitelisted routine or padding).
func secretWindows(t *testing.T, p *Protected) map[string]bool {
	t.Helper()
	pf, err := elf.Read(p.PlainELF)
	if err != nil {
		t.Fatal(err)
	}
	text := pf.SectionData(pf.Section(".text"))
	public := map[string]bool{}
	for i := 0; i+secretWindow <= len(p.SanitizedELF); i++ {
		public[string(p.SanitizedELF[i:i+secretWindow])] = true
	}
	secret := map[string]bool{}
	for i := 0; i+secretWindow <= len(text); i++ {
		if w := string(text[i : i+secretWindow]); !public[w] {
			secret[w] = true
		}
	}
	if len(secret) == 0 {
		t.Fatal("the sanitized image shares every window of the original text: nothing to scan for")
	}
	return secret
}

// assertNoSecretResidue scans every mapped enclave page without X (data,
// heap, stack: everything but the text the restore legitimately rewrote)
// for any window of the elided plaintext.
func assertNoSecretResidue(t *testing.T, encl *sdk.Enclave, secret map[string]bool) {
	t.Helper()
	// Prefilter on each window's first 8 bytes; most of the heap is zero,
	// and a zero prefix is skipped without a map lookup unless some window
	// starts with one.
	prefixes := map[uint64]bool{}
	for w := range secret {
		prefixes[binary.LittleEndian.Uint64([]byte(w))] = true
	}
	zeroPrefix := prefixes[0]

	e := encl.Encl
	var region []byte
	var regionBase uint64
	scan := func() {
		for i := 0; i+secretWindow <= len(region); i++ {
			pre := binary.LittleEndian.Uint64(region[i:])
			if (pre == 0 && !zeroPrefix) || !prefixes[pre] {
				continue
			}
			if secret[string(region[i:i+secretWindow])] {
				t.Fatalf("elided plaintext survives in enclave memory at %#x", regionBase+uint64(i))
			}
		}
		region = region[:0]
	}
	for va := e.Base; va < e.Base+e.Size; va += sgx.PageSize {
		perm, mapped := e.PagePerm(va)
		if !mapped || perm&sgx.PermX != 0 {
			scan()
			continue
		}
		page, f := encl.Space.EnclaveReadBytes(va, sgx.PageSize)
		if f != nil {
			t.Fatalf("reading enclave page %#x (%v): %v", va, perm, f)
		}
		if len(region) == 0 {
			regionBase = va
		}
		region = append(region, page...)
	}
	scan()
}

// TestRestoreLeavesNoPlaintext is the dynamic check of the trusted-side
// zeroization: after elide_restore on every acquisition path, successful
// or not, no window of the elided code remains anywhere in enclave memory
// outside the text section. The restorer's heap is an arena whose bytes
// outlive the ecall, so without the wipes the plaintext staging buffers
// would still be there to find.
func TestRestoreLeavesNoPlaintext(t *testing.T) {
	ca, h := env(t)
	restore := func(t *testing.T, p *Protected, client func(*Server) SecretChannel, files *FileStore, flags, want uint64) *Runtime {
		t.Helper()
		srv, err := p.NewServerFor(ca)
		if err != nil {
			t.Fatal(err)
		}
		encl, rt, err := p.Launch(h, client(srv), files)
		if err != nil {
			t.Fatal(err)
		}
		defer encl.Destroy()
		code, err := encl.ECall("elide_restore", flags)
		if err != nil || code != want {
			t.Fatalf("elide_restore = %d, %v (runtime: %v); want %d", code, err, rt.LastErr(), want)
		}
		assertNoSecretResidue(t, encl, secretWindows(t, p))
		return rt
	}
	direct := func(s *Server) SecretChannel { return &DirectClient{Session: s.NewSession()} }

	t.Run("remote", func(t *testing.T) {
		p := buildApp(t, h, SanitizeOptions{})
		restore(t, p, direct, p.LocalFiles(), 0, RestoreOKServer)
	})
	t.Run("local", func(t *testing.T) {
		p := buildApp(t, h, SanitizeOptions{EncryptLocal: true})
		restore(t, p, direct, p.LocalFiles(), 0, RestoreOKServer)
	})
	t.Run("hybrid-fallback", func(t *testing.T) {
		p := buildApp(t, h, SanitizeOptions{Hybrid: true})
		failData := func(s *Server) SecretChannel {
			return &flakyDataClient{SecretChannel: direct(s), failNth: 2}
		}
		rt := restore(t, p, failData, p.LocalFiles(), 0, RestoreOKServer)
		if !errors.Is(rt.LastErr(), ErrRemoteDataUnavailable) {
			t.Fatalf("last runtime error %v: the hybrid restore did not fall back", rt.LastErr())
		}
	})
	t.Run("seal-then-sealed", func(t *testing.T) {
		p := buildApp(t, h, SanitizeOptions{})
		rt := restore(t, p, direct, p.LocalFiles(), FlagSealAfter, RestoreOKServer)
		if len(rt.Files.Sealed) == 0 {
			t.Fatal("no sealed blob written")
		}
		restore(t, p, direct, rt.Files, FlagTrySealed, RestoreOKSealed)
	})
	t.Run("torn", func(t *testing.T) {
		// A server releasing tampered data (see TestTornRestoreDetected):
		// elide_restore fails with RestoreErrTorn after the apply.
		p := buildApp(t, h, SanitizeOptions{Ranges: true})
		tampered := *p
		tampered.SecretData = append([]byte(nil), p.SecretData...)
		tampered.SecretData[24] ^= 0xff
		tamperedServer := func(*Server) SecretChannel {
			srv, err := tampered.NewServerFor(ca)
			if err != nil {
				t.Fatal(err)
			}
			return direct(srv)
		}
		restore(t, p, tamperedServer, p.LocalFiles(), 0, RestoreErrTorn)
	})
}
