package sgx

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"runtime"
	"testing"

	"sgxelide/internal/evm"
)

// testEnv builds a CA + platform pair.
func testEnv(t testing.TB, cfg Config) (*CA, *Platform) {
	t.Helper()
	ca, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(cfg, ca)
	if err != nil {
		t.Fatal(err)
	}
	return ca, p
}

// devKey generates a small RSA signing key (1024 bits: fast for tests; the
// signer tool defaults to 3072).
func devKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

const (
	base  = uint64(0x10000000)
	size  = uint64(16 * PageSize)
	entry = base + 0x10
)

// buildEnclave creates, populates, measures, signs, and initializes an
// enclave with the given page contents.
func buildEnclave(t testing.TB, p *Platform, key *rsa.PrivateKey, pages map[uint64][]byte, perms map[uint64]Perm) *Enclave {
	t.Helper()
	e, err := p.ECreate(base, size, entry)
	if err != nil {
		t.Fatal(err)
	}
	for va, content := range pages {
		perm := perms[va]
		if perm == 0 {
			perm = PermR | PermX
		}
		page := make([]byte, PageSize)
		copy(page, content)
		if err := p.EAdd(e, va, perm, page); err != nil {
			t.Fatal(err)
		}
		for off := uint64(0); off < PageSize; off += EExtendChunk {
			if err := p.EExtend(e, va+off); err != nil {
				t.Fatal(err)
			}
		}
	}
	ss, err := SignEnclave(key, e.Measure(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EInit(e, ss); err != nil {
		t.Fatal(err)
	}
	return e
}

func onePage(content []byte) map[uint64][]byte {
	return map[uint64][]byte{base: content}
}

func TestECreateValidation(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 64})
	if _, err := p.ECreate(base+1, size, entry); err == nil {
		t.Error("unaligned base accepted")
	}
	if _, err := p.ECreate(base, size+1, entry); err == nil {
		t.Error("unaligned size accepted")
	}
	if _, err := p.ECreate(base, size, base-1); err == nil {
		t.Error("entry outside ELRANGE accepted")
	}
	if _, err := p.ECreate(base, 0, base); err == nil {
		t.Error("zero size accepted")
	}
}

func TestLifecycleAndMeasurement(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 64})
	key := devKey(t)
	e1 := buildEnclave(t, p, key, onePage([]byte("hello enclave")), nil)
	if !e1.Initialized() {
		t.Fatal("not initialized")
	}

	// Same content => same measurement.
	e2 := buildEnclave(t, p, key, onePage([]byte("hello enclave")), nil)
	if e1.MrEnclave != e2.MrEnclave {
		t.Error("measurement not deterministic")
	}

	// Different content => different measurement.
	e3 := buildEnclave(t, p, key, onePage([]byte("hello enclavf")), nil)
	if e1.MrEnclave == e3.MrEnclave {
		t.Error("measurement insensitive to content")
	}

	// Different permissions => different measurement.
	e4 := buildEnclave(t, p, key, onePage([]byte("hello enclave")),
		map[uint64]Perm{base: PermR | PermW | PermX})
	if e1.MrEnclave == e4.MrEnclave {
		t.Error("measurement insensitive to page permissions")
	}

	// Different entry => different measurement.
	e5, _ := p.ECreate(base, size, entry+8)
	pg := make([]byte, PageSize)
	copy(pg, "hello enclave")
	if err := p.EAdd(e5, base, PermR|PermX, pg); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < PageSize; off += EExtendChunk {
		if err := p.EExtend(e5, base+off); err != nil {
			t.Fatal(err)
		}
	}
	if e5.Measure() == e1.MrEnclave {
		t.Error("measurement insensitive to entry point")
	}
}

func TestEInitRejectsWrongMeasurement(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 64})
	key := devKey(t)
	e, _ := p.ECreate(base, size, entry)
	pg := make([]byte, PageSize)
	if err := p.EAdd(e, base, PermR|PermX, pg); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < PageSize; off += EExtendChunk {
		p.EExtend(e, base+off)
	}
	var wrong [32]byte
	wrong[0] = 0xAB
	ss, err := SignEnclave(key, wrong, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EInit(e, ss); err == nil {
		t.Fatal("EINIT accepted wrong measurement")
	}
	// Correct measurement but tampered signature.
	ss2, _ := SignEnclave(key, e.Measure(), 1, 1)
	ss2.Signature[0] ^= 1
	if err := p.EInit(e, ss2); err == nil {
		t.Fatal("EINIT accepted bad signature")
	}
	// Tampered field after signing.
	ss3, _ := SignEnclave(key, e.Measure(), 1, 1)
	ss3.ProdID = 99
	if err := p.EInit(e, ss3); err == nil {
		t.Fatal("EINIT accepted tampered SIGSTRUCT")
	}
	// And finally the honest path.
	ss4, _ := SignEnclave(key, e.Measure(), 1, 1)
	if err := p.EInit(e, ss4); err != nil {
		t.Fatal(err)
	}
}

func TestEAddRules(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 64})
	key := devKey(t)
	e := buildEnclave(t, p, key, onePage(nil), nil)
	pg := make([]byte, PageSize)
	if err := p.EAdd(e, base+PageSize, PermR, pg); err == nil {
		t.Error("EADD after EINIT accepted")
	}

	e2, _ := p.ECreate(base, size, entry)
	if err := p.EAdd(e2, base+4, PermR, pg); err == nil {
		t.Error("unaligned EADD accepted")
	}
	if err := p.EAdd(e2, base+size, PermR, pg); err == nil {
		t.Error("EADD outside ELRANGE accepted")
	}
	if err := p.EAdd(e2, base, PermR, pg[:100]); err == nil {
		t.Error("short page accepted")
	}
	if err := p.EAdd(e2, base, PermW, pg); err == nil {
		t.Error("unreadable page accepted")
	}
	if err := p.EAdd(e2, base, PermR, pg); err != nil {
		t.Fatal(err)
	}
	if err := p.EAdd(e2, base, PermR, pg); err == nil {
		t.Error("duplicate EADD accepted")
	}
}

func TestEPCExhaustionAndDestroy(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 4})
	e, _ := p.ECreate(base, size, entry)
	pg := make([]byte, PageSize)
	for i := 0; i < 4; i++ {
		if err := p.EAdd(e, base+uint64(i)*PageSize, PermR, pg); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.EAdd(e, base+4*PageSize, PermR, pg); err == nil {
		t.Fatal("EPC exhaustion not detected")
	}
	if p.FreePages() != 0 {
		t.Errorf("free pages = %d", p.FreePages())
	}
	p.Destroy(e)
	if p.FreePages() != 4 {
		t.Errorf("free pages after destroy = %d", p.FreePages())
	}
}

// TestNewPlatformAllocatesSparsely pins that a default platform does not
// preallocate its EPC: the full 32768-page array alone would be ~129 MiB,
// which is what made many-machine tests run out of memory.
func TestNewPlatformAllocatesSparsely(t *testing.T) {
	ca, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := NewPlatform(Config{}, ca)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewPlatform allocated %d bytes, want < 1 MiB", got)
	}
	if p.FreePages() != 32768 {
		t.Fatalf("free pages = %d, want the default 32768", p.FreePages())
	}
}

func TestSealKeys(t *testing.T) {
	ca, p := testEnv(t, Config{EPCPages: 128})
	key := devKey(t)
	e1 := buildEnclave(t, p, key, onePage([]byte("A")), nil)
	e2 := buildEnclave(t, p, key, onePage([]byte("B")), nil)

	k1, err := p.EGetKeySeal(e1, KeyPolicyMrEnclave)
	if err != nil {
		t.Fatal(err)
	}
	k1b, _ := p.EGetKeySeal(e1, KeyPolicyMrEnclave)
	if !bytes.Equal(k1, k1b) {
		t.Error("seal key not stable")
	}
	k2, _ := p.EGetKeySeal(e2, KeyPolicyMrEnclave)
	if bytes.Equal(k1, k2) {
		t.Error("different enclaves share an MRENCLAVE seal key")
	}
	s1, _ := p.EGetKeySeal(e1, KeyPolicyMrSigner)
	s2, _ := p.EGetKeySeal(e2, KeyPolicyMrSigner)
	if !bytes.Equal(s1, s2) {
		t.Error("same signer should share the MRSIGNER seal key")
	}

	// A different platform derives different keys for the same enclave.
	p2, err := NewPlatform(Config{EPCPages: 64}, ca)
	if err != nil {
		t.Fatal(err)
	}
	e3 := buildEnclave(t, p2, key, onePage([]byte("A")), nil)
	k3, _ := p2.EGetKeySeal(e3, KeyPolicyMrEnclave)
	if bytes.Equal(k1, k3) {
		t.Error("seal keys identical across platforms")
	}

	// Uninitialized enclave cannot get keys.
	e4, _ := p.ECreate(base, size, entry)
	if _, err := p.EGetKeySeal(e4, KeyPolicyMrEnclave); err == nil {
		t.Error("EGETKEY before EINIT accepted")
	}
}

func TestLocalAttestation(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 128})
	key := devKey(t)
	prover := buildEnclave(t, p, key, onePage([]byte("prover")), nil)
	verifier := buildEnclave(t, p, key, onePage([]byte("verifier")), nil)

	var data [ReportDataSize]byte
	copy(data[:], "channel binding")
	r, err := p.EReport(prover, verifier.MrEnclave, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyReport(verifier, r); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// The prover cannot verify a report targeted at the verifier.
	if err := p.VerifyReport(prover, r); err == nil {
		t.Error("report accepted by wrong enclave")
	}
	// Tampering breaks the MAC.
	r.Data[0] ^= 1
	if err := p.VerifyReport(verifier, r); err == nil {
		t.Error("tampered report accepted")
	}
}

func TestRemoteAttestationQuote(t *testing.T) {
	ca, p := testEnv(t, Config{EPCPages: 128})
	key := devKey(t)
	e := buildEnclave(t, p, key, onePage([]byte("attest me")), nil)

	var data [ReportDataSize]byte
	copy(data[:], "session key hash")
	r, err := p.EReport(e, QETargetInfo(), data)
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.QuoteReport(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(ca.PublicKey(), q); err != nil {
		t.Fatalf("verify quote: %v", err)
	}
	if q.MrEnclave != e.MrEnclave || q.Data != data {
		t.Error("quote does not carry the enclave identity/data")
	}

	// Quote verification fails against the wrong CA.
	otherCA, _ := NewCA()
	if err := VerifyQuote(otherCA.PublicKey(), q); err == nil {
		t.Error("quote accepted under wrong CA")
	}
	// Tampered quote body fails.
	q.MrEnclave[0] ^= 1
	if err := VerifyQuote(ca.PublicKey(), q); err == nil {
		t.Error("tampered quote accepted")
	}
	// Reports not targeted at the QE are refused.
	r2, _ := p.EReport(e, e.MrEnclave, data)
	if _, err := p.QuoteReport(r2); err == nil {
		t.Error("QE quoted a report not targeted at it")
	}
	// Forged report MAC is refused by the QE.
	r3, _ := p.EReport(e, QETargetInfo(), data)
	r3.MrEnclave[0] ^= 1
	if _, err := p.QuoteReport(r3); err == nil {
		t.Error("QE quoted a forged report")
	}
}

func TestAddressSpacePermissions(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 128})
	key := devKey(t)

	// Page 0: RX "code" (a halt); page 1: RW data; page 2: R only.
	code := make([]byte, PageSize)
	code[0] = byte(evm.HALT)
	pages := map[uint64][]byte{
		base:              []byte(string(code)),
		base + PageSize:   []byte("data page"),
		base + 2*PageSize: []byte("rodata page"),
	}
	perms := map[uint64]Perm{
		base:              PermR | PermX,
		base + PageSize:   PermR | PermW,
		base + 2*PageSize: PermR,
	}
	e := buildEnclave(t, p, key, pages, perms)
	as := &AddressSpace{Enclave: e, Untrusted: evm.NewFlatMem(0x1000, 64<<10)}

	// Exec from the RX page works.
	var b [1]byte
	if f := as.Fetch(base, b[:]); f != nil {
		t.Fatalf("fetch from RX page: %v", f)
	}
	// Exec from the RW page faults.
	if f := as.Fetch(base+PageSize, b[:]); f == nil || f.Kind != evm.FaultExecPerm {
		t.Errorf("fetch from RW page: %v", f)
	}
	// Exec outside ELRANGE faults.
	if f := as.Fetch(0x2000, b[:]); f == nil || f.Kind != evm.FaultExecPerm {
		t.Errorf("fetch outside ELRANGE: %v", f)
	}
	// Write to the RW page works.
	if f := as.Store(base+PageSize, 8, 0x1122334455667788); f != nil {
		t.Fatalf("store to RW page: %v", f)
	}
	v, f := as.Load(base+PageSize, 8)
	if f != nil || v != 0x1122334455667788 {
		t.Fatalf("load back: %v %#x", f, v)
	}
	// Write to the RX page faults: this is exactly why the sanitizer must
	// set PF_W on the text segment.
	if f := as.Store(base, 8, 1); f == nil || f.Kind != evm.FaultWritePerm {
		t.Errorf("store to RX page: %v", f)
	}
	// Write to the R page faults.
	if f := as.Store(base+2*PageSize, 1, 1); f == nil || f.Kind != evm.FaultWritePerm {
		t.Errorf("store to R page: %v", f)
	}
	// Access spanning two pages (RW boundary would need both W).
	if f := as.Store(base+2*PageSize-4, 8, 0); f == nil {
		t.Error("store spanning RW->R boundary accepted")
	}
	// Load spanning R pages is fine.
	if _, f := as.Load(base+PageSize+PageSize-4, 8); f != nil {
		t.Errorf("load spanning pages: %v", f)
	}
	// Unmapped enclave page faults.
	if _, f := as.Load(base+5*PageSize, 8); f == nil || f.Kind != evm.FaultBadAddress {
		t.Errorf("unmapped page: %v", f)
	}
	// Untrusted memory is reachable for data.
	if f := as.Store(0x2000, 8, 42); f != nil {
		t.Fatalf("untrusted store: %v", f)
	}
	if v, _ := as.Load(0x2000, 8); v != 42 {
		t.Errorf("untrusted load = %d", v)
	}
}

func TestHostAbortPageSemantics(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 64})
	key := devKey(t)
	e := buildEnclave(t, p, key, onePage([]byte("secret bytes")), nil)
	got := p.HostRead(e, base, 8)
	for _, b := range got {
		if b != 0xFF {
			t.Fatalf("host read of EPC returned %x, want abort semantics", got)
		}
	}
}

func TestMEEDRAMCiphertext(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 64})
	key := devKey(t)
	secret := []byte("super secret enclave content 1234567890")
	e := buildEnclave(t, p, key, onePage(secret), nil)
	dump, err := p.DumpDRAM(e, base)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(dump, secret) {
		t.Error("DRAM dump contains plaintext enclave content")
	}
	if len(dump) != PageSize {
		t.Errorf("dump size = %d", len(dump))
	}
	// Encrypted at rest differs across platforms (fresh MEE keys).
	ca2, _ := NewCA()
	p2, _ := NewPlatform(Config{EPCPages: 64}, ca2)
	e2 := buildEnclave(t, p2, key, onePage(secret), nil)
	dump2, _ := p2.DumpDRAM(e2, base)
	if bytes.Equal(dump, dump2) {
		t.Error("identical ciphertext across platforms")
	}
}

func TestEModPR(t *testing.T) {
	_, p1 := testEnv(t, Config{EPCPages: 64})
	key := devKey(t)
	perms := map[uint64]Perm{base: PermR | PermW | PermX}
	e1 := buildEnclave(t, p1, key, onePage(nil), perms)
	if err := p1.EModPR(e1, base, PermR|PermX); err == nil {
		t.Error("EMODPR worked on SGXv1")
	}

	_, p2 := testEnv(t, Config{EPCPages: 64, SGX2: true})
	e2 := buildEnclave(t, p2, key, onePage(nil), perms)
	if err := p2.EModPR(e2, base, PermR|PermX); err != nil {
		t.Fatalf("EMODPR restrict: %v", err)
	}
	if perm, _ := e2.PagePerm(base); perm != PermR|PermX {
		t.Errorf("perm after EMODPR = %v", perm)
	}
	// Extending back to writable must fail.
	if err := p2.EModPR(e2, base, PermR|PermW|PermX); err == nil {
		t.Error("EMODPR extended permissions")
	}
}
