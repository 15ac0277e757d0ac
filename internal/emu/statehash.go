package emu

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// StateHash returns a digest of the machine's architectural state:
// registers, output stream, and memory. Two machines that executed the
// same program to the same point hash equally; any divergence in a
// register, an emitted value, or a memory byte changes the digest.
//
// Only non-zero bytes contribute (keyed by address), so a page that was
// allocated and then written back to all zeroes hashes identically to a
// page that was never touched.
func (m *Machine) StateHash() [32]byte {
	h := sha256.New()
	var w [8]byte
	for _, r := range m.regs {
		binary.LittleEndian.PutUint32(w[:4], uint32(r))
		h.Write(w[:4])
	}
	binary.LittleEndian.PutUint64(w[:], uint64(len(m.Output)))
	h.Write(w[:])
	for _, v := range m.Output {
		binary.LittleEndian.PutUint32(w[:4], uint32(v))
		h.Write(w[:4])
	}
	pages := make([]uint32, 0, len(m.pages))
	for pn := range m.pages {
		pages = append(pages, pn)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, pn := range pages {
		p := m.pages[pn]
		base := pn << pageBits
		for i, b := range p {
			if b != 0 {
				binary.LittleEndian.PutUint32(w[:4], base|uint32(i))
				w[4] = b
				h.Write(w[:5])
			}
		}
	}
	return [32]byte(h.Sum(nil))
}
