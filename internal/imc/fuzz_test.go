package imc

import (
	"encoding/binary"
	"sort"
	"testing"

	"twolm/internal/mem"
)

// FuzzDispatchEquivalence draws a policy and associativity, a priming,
// and a sequence of batched calls — LLCReadRange, LLCWriteRange,
// LLCWritebackReadRange and LLCScatter, each split in two at a drawn
// cut — and replays the same requests on a per-line twin through
// LLCRead/LLCWrite. Counters, per-channel CAS, per-DIMM NVRAM counters
// and tag words must end equal.
//
// Input layout: byte 0 picks the policyMatrix case, byte 1 the
// foldPrimings entry (in name order), then one 7-byte record per call:
// op, start line (2 bytes, little endian), line count (2 bytes, modulo
// three set wraps plus one), cut (out of 255 of the count) and lag (in
// 128ths of the set count, plus one: past the fold window from 128 on).
// The op byte's low two bits pick the entry point and its upper six
// the byte offset of the start address inside its line.
func FuzzDispatchEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cases := policyMatrix()
		pc := cases[int(data[0])%len(cases)]
		perLine, batched := newFoldPair(t, pc.policy)
		sets := perLine.Cache.Sets()
		primings := foldPrimings(sets)
		names := make([]string, 0, len(primings))
		for name := range primings {
			names = append(names, name)
		}
		sort.Strings(names)
		prime := primings[names[int(data[1])%len(names)]]
		prime(perLine)
		prime(batched)

		const record = 7
		for ops := data[2:]; len(ops) >= record; ops = ops[record:] {
			op := ops[0]
			a := uint64(binary.LittleEndian.Uint16(ops[1:]))*mem.Line + uint64(op>>2)
			n := uint64(binary.LittleEndian.Uint16(ops[3:])) % (3*sets + 1)
			cut := n * uint64(ops[5]) / 255
			lag := uint64(ops[6])*sets/128 + 1
			switch op & 3 {
			case 0:
				for i := uint64(0); i < n; i++ {
					perLine.LLCRead(a + i*mem.Line)
				}
				batched.LLCReadRange(a, cut)
				batched.LLCReadRange(a+cut*mem.Line, n-cut)
			case 1:
				for i := uint64(0); i < n; i++ {
					perLine.LLCWrite(a + i*mem.Line)
				}
				batched.LLCWriteRange(a, cut)
				batched.LLCWriteRange(a+cut*mem.Line, n-cut)
			case 2:
				ra := a + lag*mem.Line
				for i := uint64(0); i < n; i++ {
					perLine.LLCWrite(a + i*mem.Line)
					perLine.LLCRead(ra + i*mem.Line)
				}
				batched.LLCWritebackReadRange(a, ra, cut)
				batched.LLCWritebackReadRange(a+cut*mem.Line, ra+cut*mem.Line, n-cut)
			default:
				// n requests spread over eight set wraps from a, reads
				// and writes mixed, by an xorshift stream seeded from
				// the record.
				reqs := make([]Req, n)
				x := a>>mem.LineShift | lag<<32 | 1
				for i := range reqs {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					line := a>>mem.LineShift + x%(8*sets)
					reqs[i] = ReadReq(line * mem.Line)
					if x>>40&1 == 1 {
						reqs[i] = WriteReq(line * mem.Line)
					}
				}
				replaySerial(perLine, reqs)
				batched.LLCScatter(reqs[:cut])
				batched.LLCScatter(reqs[cut:])
			}
		}
		assertSameTraffic(t, pc.rangeName(), perLine, batched)
		assertSameTagState(t, pc.rangeName(), perLine, batched)
	})
}
