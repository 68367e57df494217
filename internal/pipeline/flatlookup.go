package pipeline

import (
	"math"
	"math/bits"
	"sort"

	"camus/internal/compiler"
)

// The runtime lookup structures are flattened, state-indexed arrays built
// once at install time — the software analogue of the ASIC's SRAM/TCAM
// blocks. Pipeline states are dense small integers (the compiler numbers
// them consecutively; control-plane state alignment keeps them small), so
// per-state dispatch is a direct array index instead of a map probe, and
// the per-packet cost is a fixed number of O(1)/O(log n) array lookups
// with no hashing of Go map keys and no allocation.
//
// Exact entries use one of two encodings, chosen per table at build time:
//
//   - per-state sorted key runs: one shared []uint64 key array + parallel
//     []int32 next array, with a per-state offset table; a lookup binary
//     searches the state's run (SRAM-like, cache friendly for the small
//     cardinalities typical of most stages);
//   - an open-addressed flat hash table over (state, value) when the
//     table's cardinality warrants it (e.g. the 10k-symbol stock stage of
//     the Fig. 5c workload), bringing the probe cost back to O(1).
//
// Range entries are per-state sorted disjoint runs over shared lo/hi/next
// arrays (binary search, TCAM-like); wildcards are a direct state-indexed
// default array.
//
// A next value is the entry's target as the compiler encodes it (read with
// compiler.Decides): a state, or the action set of a row that decides. The
// leaf stage is no table here: a row's action set indexes the state
// updates, Generation.upds, directly.

// openAddrMinEntries is the exact-entry count above which a table trades
// the sorted runs for an open-addressed flat table. Below it, binary
// search over at most a cache line or two of keys wins.
const openAddrMinEntries = 64

// noTarget marks a state without a wildcard and an empty open-addressed
// slot: a value no target takes, as it would name the action set
// math.MaxInt32.
const noTarget = math.MinInt32

// lookupTable is the runtime form of one compiler.Table.
type lookupTable struct {
	field int
	codec *compiler.DomainCodec

	// nStates bounds the state-indexed arrays; states outside [0,nStates)
	// miss every part of the table.
	nStates int

	wild []int32 // state -> next, noTarget when the state has no default

	// Exact entries, sorted-runs encoding (oaNext == nil):
	exactOff  []int32 // len nStates+1; state s's run is keys[off[s]:off[s+1]]
	exactKeys []uint64
	exactNext []int32

	// Exact entries, open-addressed encoding (oaNext != nil):
	oaMask  uint32
	oaState []int32
	oaKey   []uint64
	oaNext  []int32 // noTarget marks an empty slot

	// Range entries: per-state sorted disjoint runs.
	rangeOff  []int32 // len nStates+1
	rangeLo   []uint64
	rangeHi   []uint64
	rangeNext []int32
}

type rangeEntry struct {
	lo, hi uint64
	next   int
}

// oaHash mixes (state, value) into a probe start; the multiplier spreads
// the low bits the mask keeps (splitmix64 finalizer constants).
//
//camus:hotpath
func oaHash(state int32, value uint64) uint32 {
	h := value ^ uint64(state)*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h)
}

func buildLookup(t *compiler.Table) lookupTable {
	lt := lookupTable{field: t.Field, codec: t.Codec}

	// Last-wins dedup mirrors the old map-based build exactly: a later
	// entry for the same (state, value) / state replaces the earlier one.
	type exactKey struct {
		state int
		value uint64
	}
	exact := make(map[exactKey]int)
	wild := make(map[int]int)
	ranges := make(map[int][]rangeEntry)
	maxState := -1
	for _, e := range t.Entries {
		if e.State > maxState {
			maxState = e.State
		}
		switch e.Kind {
		case compiler.EntryExact:
			exact[exactKey{e.State, e.Lo}] = e.Next
		case compiler.EntryWild:
			wild[e.State] = e.Next
		case compiler.EntryRange:
			ranges[e.State] = append(ranges[e.State], rangeEntry{e.Lo, e.Hi, e.Next})
		}
	}
	lt.nStates = maxState + 1
	n := lt.nStates

	lt.wild = make([]int32, n)
	for i := range lt.wild {
		lt.wild[i] = noTarget
	}
	for st, next := range wild {
		lt.wild[st] = int32(next)
	}

	if len(exact) >= openAddrMinEntries {
		size := 1 << bits.Len(uint(len(exact)*2-1)) // power of two, load factor <= 0.5
		lt.oaMask = uint32(size - 1)
		lt.oaState = make([]int32, size)
		lt.oaKey = make([]uint64, size)
		lt.oaNext = make([]int32, size)
		for i := range lt.oaNext {
			lt.oaNext[i] = noTarget
		}
		for k, next := range exact {
			h := oaHash(int32(k.state), k.value) & lt.oaMask
			for lt.oaNext[h] != noTarget {
				h = (h + 1) & lt.oaMask
			}
			lt.oaState[h] = int32(k.state)
			lt.oaKey[h] = k.value
			lt.oaNext[h] = int32(next)
		}
	} else {
		keys := make([]exactKey, 0, len(exact))
		for k := range exact {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].state != keys[j].state {
				return keys[i].state < keys[j].state
			}
			return keys[i].value < keys[j].value
		})
		lt.exactOff = make([]int32, n+1)
		lt.exactKeys = make([]uint64, len(keys))
		lt.exactNext = make([]int32, len(keys))
		pos, st := 0, 0
		for _, k := range keys {
			for st <= k.state {
				lt.exactOff[st] = int32(pos)
				st++
			}
			lt.exactKeys[pos] = k.value
			lt.exactNext[pos] = int32(exact[k])
			pos++
		}
		for ; st <= n; st++ {
			lt.exactOff[st] = int32(pos)
		}
	}

	total := 0
	for _, rs := range ranges {
		total += len(rs)
	}
	lt.rangeOff = make([]int32, n+1)
	lt.rangeLo = make([]uint64, 0, total)
	lt.rangeHi = make([]uint64, 0, total)
	lt.rangeNext = make([]int32, 0, total)
	for st := 0; st < n; st++ {
		lt.rangeOff[st] = int32(len(lt.rangeLo))
		rs := ranges[st]
		sort.Slice(rs, func(i, j int) bool { return rs[i].lo < rs[j].lo })
		for _, r := range rs {
			lt.rangeLo = append(lt.rangeLo, r.lo)
			lt.rangeHi = append(lt.rangeHi, r.hi)
			lt.rangeNext = append(lt.rangeNext, int32(r.next))
		}
	}
	lt.rangeOff[n] = int32(len(lt.rangeLo))
	return lt
}

// lookup performs the single-stage table lookup: exact first (SRAM), then
// ranges (TCAM), then the per-state wildcard default. Zero allocation;
// states outside the table's indexed span miss.
//
//camus:hotpath
func (lt *lookupTable) lookup(state int, value uint64) (int, bool) {
	if lt.codec != nil {
		value = lt.codec.Code(value)
	}
	if uint(state) >= uint(lt.nStates) {
		return 0, false
	}
	if lt.oaNext != nil {
		h := oaHash(int32(state), value) & lt.oaMask
		for {
			next := lt.oaNext[h]
			if next == noTarget {
				break
			}
			if lt.oaKey[h] == value && lt.oaState[h] == int32(state) {
				return int(next), true
			}
			h = (h + 1) & lt.oaMask
		}
	} else {
		lo, hi := int(lt.exactOff[state]), int(lt.exactOff[state+1])
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			switch k := lt.exactKeys[mid]; {
			case value < k:
				hi = mid
			case value > k:
				lo = mid + 1
			default:
				return int(lt.exactNext[mid]), true
			}
		}
	}
	lo, hi := int(lt.rangeOff[state]), int(lt.rangeOff[state+1])-1
	for lo <= hi {
		mid := int(uint(lo+hi) >> 1)
		switch {
		case value < lt.rangeLo[mid]:
			hi = mid - 1
		case value > lt.rangeHi[mid]:
			lo = mid + 1
		default:
			return int(lt.rangeNext[mid]), true
		}
	}
	if next := lt.wild[state]; next != noTarget {
		return int(next), true
	}
	return 0, false
}
