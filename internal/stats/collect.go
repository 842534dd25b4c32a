package stats

import (
	"fmt"

	"tkij/internal/interval"
	"tkij/internal/mapreduce"
)

// chunkSize is the number of intervals handed to one map invocation.
// Each map call maintains a local matrix for its chunk (the paper's
// map-side aggregation), so only G×G cell counts are shuffled per chunk
// rather than one record per interval.
const chunkSize = 8192

// statsChunk is one map input: a slice of a collection.
type statsChunk struct {
	col   int
	gran  Granulation
	items []interval.Interval
}

// Collect runs the statistics-collection Map-Reduce job (§3.2, Figure
// 5a): it partitions each collection's own time span into g granules and
// returns one bucket matrix per collection. The reducer responsible for
// collection i aggregates and outputs B_i.
func Collect(cols []*interval.Collection, g int, cfg mapreduce.Config) ([]*Matrix, *mapreduce.Metrics, error) {
	if len(cols) == 0 {
		return nil, nil, fmt.Errorf("stats: no collections")
	}
	grans := make([]Granulation, len(cols))
	var inputs []statsChunk
	for i, c := range cols {
		if c.Len() == 0 {
			return nil, nil, fmt.Errorf("stats: collection %d (%s) is empty", i, c.Name)
		}
		s := c.ComputeStats()
		gr, err := NewGranulation(s.MinStart, s.MaxEnd, g)
		if err != nil {
			return nil, nil, err
		}
		grans[i] = gr
		for lo := 0; lo < len(c.Items); lo += chunkSize {
			hi := lo + chunkSize
			if hi > len(c.Items) {
				hi = len(c.Items)
			}
			inputs = append(inputs, statsChunk{col: i, gran: gr, items: c.Items[lo:hi]})
		}
	}

	job := mapreduce.Job[statsChunk, int, *Matrix, *Matrix]{
		Name: "collect-statistics",
		Map: func(in statsChunk, emit func(int, *Matrix)) error {
			local := NewMatrix(in.col, in.gran)
			for _, iv := range in.items {
				if !iv.Valid() {
					return fmt.Errorf("stats: invalid interval %v in collection %d", iv, in.col)
				}
				local.Add(iv)
			}
			emit(in.col, local)
			return nil
		},
		Partition: mapreduce.IdentityPartition,
		Reduce: func(col int, locals []*Matrix, emit func(*Matrix)) error {
			final := NewMatrix(col, locals[0].Gran)
			for _, m := range locals {
				if err := final.Merge(m); err != nil {
					return err
				}
			}
			emit(final)
			return nil
		},
	}

	out, metrics, err := mapreduce.Run(job, inputs, cfg)
	if err != nil {
		return nil, metrics, err
	}
	matrices := make([]*Matrix, len(cols))
	for _, m := range out {
		matrices[m.Col] = m
	}
	for i, m := range matrices {
		if m == nil {
			return nil, metrics, fmt.Errorf("stats: no matrix produced for collection %d", i)
		}
		if m.Total() != cols[i].Len() {
			return nil, metrics, fmt.Errorf("stats: B%d counted %d intervals, collection has %d", i, m.Total(), cols[i].Len())
		}
	}
	return matrices, metrics, nil
}

// ApplyUpdate folds inserted intervals into an existing matrix, the
// paper's incremental-maintenance path (§3.2). The granulation is kept
// fixed; out-of-range endpoints clamp to the boundary granules.
//
// ApplyUpdate mutates m in place. The engine's append path (the only
// way an engine's data changes) clones a collection's matrix first, so
// queries and plans that captured the pre-append matrix keep reading an
// immutable one; counts only grow.
func ApplyUpdate(m *Matrix, inserted []interval.Interval) error {
	for _, iv := range inserted {
		if !iv.Valid() {
			return fmt.Errorf("stats: invalid inserted interval %v", iv)
		}
		m.Add(iv)
	}
	return m.Validate()
}
