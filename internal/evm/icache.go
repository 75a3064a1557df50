package evm

// Decoded-instruction caching. Interpreting an instruction costs two bus
// fetches plus a decode; steady-state enclave code is static, so the VM
// caches decoded instructions. Self-modifying code — the entire point of
// SgxElide — is handled by an explicit invalidation protocol: a bus that
// can observe writes to executable memory implements CodeVersioner with a
// *per-page* write generation; every cached entry is tagged with the
// generation it was decoded under and is ignored once the page's
// generation moves on. A bus that cannot make that promise (e.g. the
// permissionless FlatMem) simply doesn't implement the interface and the
// VM interprets uncached — always correct, just slower.
//
// The VM does not ask the bus for a generation on every instruction. It
// memoizes the generation of the page it is executing from and asks again
// only when
//
//   - the PC moves to another page,
//   - Run (or Step) is entered, since the host may have written memory or
//     restricted permissions between calls, or
//   - the instruction just executed may have written that page: an ST*,
//     PUSH, CALL or CALLR whose bytes touch it, or any INTRIN.
//
// That is sound because, within one Run, the running thread is the only
// writer of the memory it executes: an enclave has one VM, and the host
// writes enclave memory only between ecalls. A write to another page needs
// no bookkeeping: its generation is read when the PC arrives there.
//
// Per-page generations matter for the restore path: the restorer's memcpy
// overwrites the whole text section while executing from it. Only the page
// currently being rewritten has its entries invalidated; the page hosting
// the copy loop itself thrashes briefly while the loop copies over its own
// bytes and is stable otherwise.

// CodeVersioner is implemented by buses that can detect writes to
// executable memory at page granularity.
type CodeVersioner interface {
	// CodeVersion returns a counter for the page containing addr that
	// increases whenever that page's executable bytes may have changed.
	CodeVersion(addr uint64) uint64
}

const icachePageSize = 4096

// icacheEntry is one decoded instruction; size==0 means never filled.
// version tags the page generation the decode was made under.
type icacheEntry struct {
	in      Inst
	size    uint8
	version uint64
}

// icachePage caches the decodings of one page of code. Entries carry their
// own versions, so invalidation never requires clearing the array.
type icachePage struct {
	entries [icachePageSize]icacheEntry
}

// icache maps page base addresses to their decoded entries. The VM
// consults it only when execution moves to another page; within a page it
// holds on to the *icachePage.
type icache struct {
	pages map[uint64]*icachePage
}

func (c *icache) page(base uint64) *icachePage {
	if c.pages == nil {
		c.pages = make(map[uint64]*icachePage)
	}
	pg := c.pages[base]
	if pg == nil {
		pg = &icachePage{}
		c.pages[base] = pg
	}
	return pg
}

// lookup returns the cached decode at addr, or nil if none is current for
// version. The entry is returned in place, not copied.
func (p *icachePage) lookup(addr, version uint64) *icacheEntry {
	e := &p.entries[addr&(icachePageSize-1)]
	if e.size == 0 || e.version != version {
		return nil
	}
	return e
}

// store records a decode. Instructions that span a page boundary are not
// cached (their bytes live on two pages with independent generations).
func (p *icachePage) store(addr, version uint64, in *Inst, size int) {
	if (addr+uint64(size)-1)&^uint64(icachePageSize-1) != addr&^uint64(icachePageSize-1) {
		return
	}
	p.entries[addr&(icachePageSize-1)] = icacheEntry{in: *in, size: uint8(size), version: version}
}
