package prog

import "fmt"

// compress mirrors SPEC95 129.compress: an LZW-style compressor. The kernel
// hashes (prefix, symbol) pairs into an open-addressed dictionary, emitting
// a code whenever the pair is new. It produces the long serial dependence
// chains through the hash table that made compress a low-ILP benchmark.

const (
	compressN       = 8000        // input bytes (the paper-scale workload)
	compressBigN    = 60_000      // input bytes for compress.big (~3.8M dynamic insts)
	compressHugeN   = 1_500_000   // symbols for compress.huge (~10^8 dynamic insts)
	compressTabBits = 12          // 4096-entry dictionary
	compressMaxCode = 3500        // stop growing the dictionary here
	compressHashMul = -1640531527 // 2654435761 as int32 (Knuth multiplicative hash)
)

// compressRefN is the reference implementation for an n-symbol input.
func compressRefN(n int) []int32 {
	input := make([]byte, n)
	s := int32(12345)
	for i := range input {
		s = lcg(s)
		input[i] = byte((s >> 16) & 7)
	}
	const size = 1 << compressTabBits
	const mask = size - 1
	hkey := make([]int32, size)
	hval := make([]int32, size)
	for i := range hkey {
		hkey[i] = -1
	}
	w := int32(input[0])
	var csum, codes int32
	next := int32(8)
	emit := func() {
		codes++
		csum = csum*31 + w
	}
	for i := 1; i < n; i++ {
		c := int32(input[i])
		key := w<<8 | c
		idx := int32(uint32(key*compressHashMul)>>20) & mask
		for {
			k := hkey[idx]
			if k == key {
				w = hval[idx]
				break
			}
			if k == -1 {
				emit()
				if next < compressMaxCode {
					hkey[idx] = key
					hval[idx] = next
					next++
				}
				w = c
				break
			}
			idx = (idx + 1) & mask
		}
	}
	emit()
	return []int32{codes, next, csum}
}

const compressSrcFmt = `
# compress: LZW-style dictionary compressor (mirrors SPEC95 129.compress).
		.data
input:	.space %[1]d
hkey:	.space 16384          # 4096 dictionary keys
hval:	.space 16384          # 4096 dictionary codes
		.text
main:
		# Generate the input: N symbols in 0..7 from the shared LCG.
		la   $s0, input
		li   $t0, 12345        # seed
		li   $t1, 0            # i
		li   $s2, %[1]d        # N
		li   $t5, 1103515245
gen:	mul  $t0, $t0, $t5
		addi $t0, $t0, 12345
		srl  $t2, $t0, 16
		andi $t2, $t2, 7
		add  $t3, $s0, $t1
		sb   $t2, 0($t3)
		addi $t1, $t1, 1
		blt  $t1, $s2, gen

		# Clear the dictionary: every key slot holds -1.
		la   $s7, hkey
		li   $t1, 0
		li   $t2, 4096
		li   $t3, -1
init:	sll  $t4, $t1, 2
		add  $t4, $s7, $t4
		sw   $t3, 0($t4)
		addi $t1, $t1, 1
		blt  $t1, $t2, init

		# LZW main loop.
		la   $fp, hval
		lbu  $s3, 0($s0)       # w = input[0]
		li   $s4, 0            # csum
		li   $s5, 0            # codes emitted
		li   $s6, 8            # next dictionary code
		li   $s1, 1            # i
		li   $t9, -1640531527  # hash multiplier
		li   $t8, 31           # checksum multiplier
loop:	bge  $s1, $s2, finish
		add  $t0, $s0, $s1
		lbu  $t1, 0($t0)       # c = input[i]
		sll  $t2, $s3, 8
		or   $t2, $t2, $t1     # key = w<<8 | c
		mul  $t3, $t2, $t9
		srl  $t3, $t3, 20
		andi $t3, $t3, 0xFFF   # idx = hash(key)
probe:	sll  $t4, $t3, 2
		add  $t5, $s7, $t4
		lw   $t6, 0($t5)       # k = hkey[idx]
		beq  $t6, $t2, found
		li   $t7, -1
		beq  $t6, $t7, empty
		addi $t3, $t3, 1
		andi $t3, $t3, 0xFFF
		j    probe
found:	add  $t5, $fp, $t4
		lw   $s3, 0($t5)       # w = hval[idx]
		addi $s1, $s1, 1
		j    loop
empty:	addi $s5, $s5, 1       # emit code for w
		mul  $s4, $s4, $t8
		add  $s4, $s4, $s3
		li   $t7, 3500
		bge  $s6, $t7, noadd
		sw   $t2, 0($t5)       # hkey[idx] = key
		add  $t5, $fp, $t4
		sw   $s6, 0($t5)       # hval[idx] = next
		addi $s6, $s6, 1
noadd:	move $s3, $t1          # w = c
		addi $s1, $s1, 1
		j    loop
finish:	addi $s5, $s5, 1       # emit the final prefix
		mul  $s4, $s4, $t8
		add  $s4, $s4, $s3
		out  $s5
		out  $s6
		out  $s4
		halt
`

// compressHugeRefN mirrors compress.huge: the same LZW kernel over a
// multi-regime symbol stream generated on the fly (no input buffer —
// the stream is regenerated from the LCG inside the main loop, so the
// workload's memory stays dictionary-sized however long it runs). A
// second LCG switches the stream between low-entropy blocks (3-bit
// symbols: the dictionary absorbs them, lookups hit, IPC runs high) and
// high-entropy blocks (8-bit symbols: the saturated dictionary misses,
// probe chains stretch, IPC drops) with irregular deterministic block
// lengths, giving the trace genuine, irregularly spaced program phases
// for the phase-clustered sampler to find. All shifts mirror the
// machine's logical srl.
func compressHugeRefN(n int32) []int32 {
	const size = 1 << compressTabBits
	const mask = size - 1
	hkey := make([]int32, size)
	hval := make([]int32, size)
	for i := range hkey {
		hkey[i] = -1
	}
	sym := int32(12345)
	reg := int32(777)
	var blockRem, symMask int32
	var w, csum, codes int32
	next := int32(8)
	for i := int32(0); i < n; i++ {
		if blockRem == 0 {
			reg = lcg(reg)
			if (uint32(reg)>>8)&1 == 0 {
				symMask = 255
			} else {
				symMask = 7
			}
			blockRem = 60000 + int32((uint32(reg)>>16)&0x1FFFF)
		}
		blockRem--
		sym = lcg(sym)
		c := int32(uint32(sym)>>16) & symMask
		if i == 0 {
			w = c
			continue
		}
		key := w<<8 | c
		idx := int32(uint32(key*compressHashMul)>>20) & mask
		for {
			k := hkey[idx]
			if k == key {
				w = hval[idx]
				break
			}
			if k == -1 {
				codes++
				csum = csum*31 + w
				if next < compressMaxCode {
					hkey[idx] = key
					hval[idx] = next
					next++
				}
				w = c
				break
			}
			idx = (idx + 1) & mask
		}
	}
	codes++
	csum = csum*31 + w
	return []int32{codes, next, csum}
}

const compressHugeSrc = `
# compress.huge: LZW over a multi-regime on-the-fly symbol stream.
# A regime LCG alternates low-entropy (3-bit) and high-entropy (8-bit)
# symbol blocks of irregular length, so the execution has real phases.
		.data
hkey:	.space 16384          # 4096 dictionary keys
hval:	.space 16384          # 4096 dictionary codes
		.text
main:
		# Clear the dictionary: every key slot holds -1.
		la   $s7, hkey
		li   $t1, 0
		li   $t2, 4096
		li   $t3, -1
init:	sll  $t4, $t1, 2
		add  $t4, $s7, $t4
		sw   $t3, 0($t4)
		addi $t1, $t1, 1
		blt  $t1, $t2, init

		la   $fp, hval
		li   $t0, 12345        # symbol LCG state
		li   $s0, 777          # regime LCG state
		li   $t6, 0            # symbols left in the current block
		li   $t7, 255          # current symbol mask (set by regime)
		li   $s1, 0            # i
		li   $s2, %d           # N symbols
		li   $s4, 0            # csum
		li   $s5, 0            # codes emitted
		li   $s6, 8            # next dictionary code

loop:	bge  $s1, $s2, finish
		bgtz $t6, gen          # block not exhausted
		# Advance the regime: reseed mask and block length.
		li   $t9, 1103515245
		mul  $s0, $s0, $t9
		addi $s0, $s0, 12345
		srl  $t4, $s0, 8
		andi $t4, $t4, 1
		li   $t7, 255          # bit clear: high-entropy block
		beq  $t4, $0, setlen
		li   $t7, 7            # bit set: low-entropy block
setlen:	srl  $t6, $s0, 16
		andi $t6, $t6, 0x1FFFF
		li   $t9, 60000
		add  $t6, $t6, $t9     # blockRem in [60000, 191071]
gen:	addi $t6, $t6, -1
		li   $t9, 1103515245
		mul  $t0, $t0, $t9
		addi $t0, $t0, 12345
		srl  $t1, $t0, 16
		and  $t1, $t1, $t7     # c = (s >> 16) & mask
		bgtz $s1, lzw
		move $s3, $t1          # first symbol: w = c
		addi $s1, $s1, 1
		j    loop
lzw:	sll  $t2, $s3, 8
		or   $t2, $t2, $t1     # key = w<<8 | c
		li   $t9, -1640531527
		mul  $t3, $t2, $t9
		srl  $t3, $t3, 20
		andi $t3, $t3, 0xFFF   # idx = hash(key)
probe:	sll  $t4, $t3, 2
		add  $t5, $s7, $t4
		lw   $t8, 0($t5)       # k = hkey[idx]
		beq  $t8, $t2, found
		li   $t9, -1
		beq  $t8, $t9, empty
		addi $t3, $t3, 1
		andi $t3, $t3, 0xFFF
		j    probe
found:	add  $t5, $fp, $t4
		lw   $s3, 0($t5)       # w = hval[idx]
		addi $s1, $s1, 1
		j    loop
empty:	addi $s5, $s5, 1       # emit code for w
		li   $t9, 31
		mul  $s4, $s4, $t9
		add  $s4, $s4, $s3
		li   $t9, 3500
		bge  $s6, $t9, noadd
		sw   $t2, 0($t5)       # hkey[idx] = key
		add  $t5, $fp, $t4
		sw   $s6, 0($t5)       # hval[idx] = next
		addi $s6, $s6, 1
noadd:	move $s3, $t1          # w = c
		addi $s1, $s1, 1
		j    loop
finish:	addi $s5, $s5, 1       # emit the final prefix
		li   $t9, 31
		mul  $s4, $s4, $t9
		add  $s4, $s4, $s3
		out  $s5
		out  $s6
		out  $s4
		halt
`

func init() {
	register(&Workload{
		Name:        "compress",
		Description: "LZW-style dictionary compression over an 8000-symbol stream (mirrors SPEC95 129.compress)",
		Source:      fmt.Sprintf(compressSrcFmt, compressN),
		Reference:   func() []int32 { return compressRefN(compressN) },
	})
	// compress.big is the same kernel over a 60k-symbol stream (~3.8M
	// dynamic instructions): long enough for segment-parallel simulation
	// to pay off. Extension keeps it out of the default sweep matrix.
	register(&Workload{
		Name:        "compress.big",
		Description: "LZW-style dictionary compression over a 60000-symbol stream (segment-parallel benchmark scale)",
		Source:      fmt.Sprintf(compressSrcFmt, compressBigN),
		Reference:   func() []int32 { return compressRefN(compressBigN) },
		Extension:   true,
	})
	// compress.huge is the streaming-scale phase workload: ~10^8 dynamic
	// instructions of LZW over a multi-regime symbol stream generated on
	// the fly. Huge keeps it out of every test matrix; the streaming
	// benchmark (ce.StreamBench) and CI's bounded-memory job run it by
	// name.
	register(&Workload{
		Name:        "compress.huge",
		Description: "LZW over a multi-regime on-the-fly symbol stream, ~10^8 instructions (streaming/phase-sampling scale)",
		Source:      fmt.Sprintf(compressHugeSrc, compressHugeN),
		Reference:   func() []int32 { return compressHugeRefN(compressHugeN) },
		Extension:   true,
		Huge:        true,
	})
}
