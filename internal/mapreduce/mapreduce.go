// Package mapreduce is a small in-process MapReduce framework [7] with the
// elapsed-communication-cost (ECC) accounting of Afrati and Ullman [1] used
// in Section 6 of the paper. It reproduces the phase structure of Hadoop:
// the coordinator partitions the input into key/value pairs, mappers run the
// Map function in parallel, intermediate pairs are hash-partitioned by key
// to reducers, and reducers run the Reduce function.
//
// A process path runs coordinator -> mapper -> reducer; its cost is the
// size of the input shipped to the nodes on the path. The ECC of a job is
// the maximum cost over all process paths. ECC does not count in-memory
// compute; wall-clock compute is reported separately.
package mapreduce

import (
	"sort"
	"sync"
	"time"
)

// Pair is a key/value pair.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// Job describes one MapReduce computation from (K1, V1) inputs through
// (K2, V2) intermediates to per-key results of type R.
type Job[K1 comparable, V1 any, K2 comparable, V2 any, R any] struct {
	// Map processes one input pair on a mapper, emitting intermediates.
	Map func(k K1, v V1, emit func(K2, V2))
	// Reduce folds all intermediates of one key on a reducer.
	Reduce func(k K2, vs []V2) R
	// InputBytes accounts the wire size of one input pair (coordinator to
	// mapper). Nil means 16 bytes.
	InputBytes func(K1, V1) int
	// InterBytes accounts the wire size of one intermediate pair (mapper to
	// reducer), given the input pair whose Map emitted it. Nil means 16
	// bytes.
	InterBytes func(K1, V1, K2, V2) int
	// Reducers is the number of reducer slots (>= 1). Intermediates are
	// hash-partitioned over them by key.
	Reducers int
}

// Stats reports the cost accounting of one job execution.
type Stats struct {
	Mappers        int
	Reducers       int
	MapperInBytes  []int64       // input shipped to each mapper
	ReducerInBytes []int64       // input shipped to each reducer
	ECC            int64         // max process-path cost
	TotalBytes     int64         // all data shipped
	MapWall        time.Duration // wall time of the parallel map phase
	ReduceWall     time.Duration // wall time of the parallel reduce phase
}

// Run executes the job with one mapper per input pair slot: input pair i is
// assigned to mapper i%mappers, mirroring Hadoop's input splits. It returns
// the per-key results (in deterministic key-hash order along with their
// keys) and the accounting.
func Run[K1 comparable, V1 any, K2 comparable, V2 any, R any](
	job Job[K1, V1, K2, V2, R],
	inputs []Pair[K1, V1],
	mappers int,
) ([]Pair[K2, R], Stats) {
	if mappers <= 0 {
		mappers = 1
	}
	reducers := job.Reducers
	if reducers <= 0 {
		reducers = 1
	}
	inBytes := job.InputBytes
	if inBytes == nil {
		inBytes = func(K1, V1) int { return 16 }
	}
	interBytes := job.InterBytes
	if interBytes == nil {
		interBytes = func(K1, V1, K2, V2) int { return 16 }
	}
	st := Stats{
		Mappers:        mappers,
		Reducers:       reducers,
		MapperInBytes:  make([]int64, mappers),
		ReducerInBytes: make([]int64, reducers),
	}
	// Assign inputs to mappers round-robin (Hadoop input splits).
	split := make([][]Pair[K1, V1], mappers)
	for i, p := range inputs {
		m := i % mappers
		split[m] = append(split[m], p)
		st.MapperInBytes[m] += int64(inBytes(p.Key, p.Value))
	}

	// Map phase: one goroutine per mapper.
	type emitted struct {
		pairs []Pair[K2, V2]
		bytes []int64 // each pair's InterBytes
	}
	out := make([]emitted, mappers)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(mappers)
	for m := 0; m < mappers; m++ {
		go func(m int) {
			defer wg.Done()
			for _, p := range split[m] {
				job.Map(p.Key, p.Value, func(k K2, v V2) {
					out[m].pairs = append(out[m].pairs, Pair[K2, V2]{k, v})
					out[m].bytes = append(out[m].bytes, int64(interBytes(p.Key, p.Value, k, v)))
				})
			}
		}(m)
	}
	wg.Wait()
	st.MapWall = time.Since(start)

	// Shuffle: hash-partition intermediates by key over the reducers.
	groups := make([]map[K2][]V2, reducers)
	for r := range groups {
		groups[r] = make(map[K2][]V2)
	}
	mapperToReducer := make([]int64, mappers)
	for m := range out {
		for i, p := range out[m].pairs {
			r := hashKey(p.Key) % uint64(reducers)
			groups[r][p.Key] = append(groups[r][p.Key], p.Value)
			b := out[m].bytes[i]
			st.ReducerInBytes[r] += b
			mapperToReducer[m] += b
		}
	}

	// Reduce phase: one goroutine per reducer.
	results := make([][]Pair[K2, R], reducers)
	start = time.Now()
	wg.Add(reducers)
	for r := 0; r < reducers; r++ {
		go func(r int) {
			defer wg.Done()
			for k, vs := range groups[r] {
				results[r] = append(results[r], Pair[K2, R]{k, job.Reduce(k, vs)})
			}
		}(r)
	}
	wg.Wait()
	st.ReduceWall = time.Since(start)

	// ECC: max over process paths (coordinator -> mapper m -> reducer) of
	// the data shipped along the path's edges.
	for m := 0; m < mappers; m++ {
		if c := st.MapperInBytes[m] + mapperToReducer[m]; c > st.ECC {
			st.ECC = c
		}
	}
	for m := 0; m < mappers; m++ {
		st.TotalBytes += st.MapperInBytes[m] + mapperToReducer[m]
	}
	var all []Pair[K2, R]
	for r := range results {
		all = append(all, results[r]...)
	}
	sort.Slice(all, func(i, j int) bool { return hashKey(all[i].Key) < hashKey(all[j].Key) })
	return all, st
}

// hashKey hashes arbitrary comparable keys via fmt-free reflection on the
// common cases; for other types it falls back to a stable constant, which
// degrades distribution but never correctness.
func hashKey(k any) uint64 {
	switch v := k.(type) {
	case int:
		return mix(uint64(v))
	case int32:
		return mix(uint64(v))
	case int64:
		return mix(uint64(v))
	case uint64:
		return mix(v)
	case string:
		h := uint64(14695981039346656037)
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= 1099511628211
		}
		return h
	default:
		return 0
	}
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}
