// Package relq is the per-endsystem relational engine beneath Seaweed. The
// paper assumes each endsystem runs a local DBMS (SQL Server 2005 in the
// original evaluation) capable of executing relational queries on its local
// data and exporting histograms on indexed columns; relq provides both
// natively: typed columnar tables, a parser and executor for the SQL subset
// Seaweed supports (single-table SELECT with standard aggregates and
// conjunctive comparison predicates, including NOW() arithmetic), exact
// execution, and histogram-based row-count estimation.
//
// Storage is columnar and block-structured: each column is one contiguous
// []int64, logically partitioned into fixed BlockSize-row blocks, and every
// (column, block) pair carries a zone map — the min and max value in that
// block, maintained incrementally on insert. Execution is batch-at-a-time
// (see exec.go and kernels.go): zone maps skip whole blocks, and surviving
// blocks are evaluated with per-operator selection-vector kernels.
//
// String values are stored hash-encoded: a string column holds the 63-bit
// FNV hash of each value. Equality predicates hash their literal, so
// histograms built on the hashed column transfer between endsystems without
// shipping dictionaries — exactly what Seaweed's replicated data summaries
// need. Range predicates on string columns are rejected at parse time.
package relq

import (
	"fmt"
	"hash/fnv"

	"repro/internal/histogram"
)

// Type is a column type.
type Type int

const (
	// TInt is a 64-bit signed integer column.
	TInt Type = iota
	// TString is a string column, stored hash-encoded.
	TString
)

// Column describes one table column. Indexed columns get histograms in the
// table's data summary (the paper replicates "histograms on indexed
// columns of the local database").
type Column struct {
	Name    string
	Type    Type
	Indexed bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Name    string // table name
	Columns []Column
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HashString returns the 63-bit FNV-1a code a string value is stored as.
func HashString(s string) int64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return int64(h.Sum64() &^ (1 << 63))
}

// BlockSize is the number of rows per storage block. Each block carries a
// per-column zone map (min/max) so predicate evaluation can skip it
// entirely when the zone proves no row can match. 2048 rows keeps a block's
// working set (one column segment, 16 kB) inside L1 while amortizing the
// per-block dispatch overhead across thousands of rows.
const BlockSize = 2048

// Table is a columnar table holding one endsystem's horizontal partition of
// a dataset. Tables are not safe for concurrent use; in the simulation each
// table belongs to exactly one endsystem.
type Table struct {
	schema Schema
	cols   [][]int64
	rows   int

	// Zone maps: zmin[c][b] / zmax[c][b] bound the values of column c in
	// block b (rows [b*BlockSize, min((b+1)*BlockSize, rows))). They are
	// maintained incrementally on insert — a fresh block's zone starts at
	// its first row's value and widens as rows arrive — so a zone is valid
	// at all times, including for the trailing partially-filled block.
	zmin, zmax [][]int64

	// zonesOff disables zone-map pruning at execution time (construction
	// continues, so re-enabling needs no rebuild). Used by benchmarks and
	// tests to isolate the kernels' contribution from pruning's.
	zonesOff bool

	// stats holds the executor's observability counters (nil handles are
	// no-ops; see SetExecStats).
	stats ExecStats

	// lastSummary is the most recent BuildSummary result, kept so the
	// executor can order conjuncts by estimated selectivity without a
	// side channel (the node already rebuilds the summary whenever its
	// data changes).
	lastSummary *TableSummary

	// plans caches bound plans keyed by query identity (see plancache.go).
	plans planCache
}

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) *Table {
	return NewTableWithCapacity(schema, 0)
}

// NewTableWithCapacity creates an empty table preallocating column storage
// for rowCap rows (rounded up to whole blocks) and the matching zone-map
// capacity. Bulk loaders that know their row count up front — anemone
// generation in particular — use this to avoid append-regrowth churn,
// which at N=100k+ endsystems otherwise re-copies every column
// O(log rows) times.
func NewTableWithCapacity(schema Schema, rowCap int) *Table {
	t := &Table{
		schema: schema,
		cols:   make([][]int64, len(schema.Columns)),
		zmin:   make([][]int64, len(schema.Columns)),
		zmax:   make([][]int64, len(schema.Columns)),
	}
	if rowCap > 0 {
		// Block-align the capacity so the last reserved block is whole.
		blocks := (rowCap + BlockSize - 1) / BlockSize
		rowCap = blocks * BlockSize
		for i := range t.cols {
			t.cols[i] = make([]int64, 0, rowCap)
			t.zmin[i] = make([]int64, 0, blocks)
			t.zmax[i] = make([]int64, 0, blocks)
		}
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return &t.schema }

// NumRows returns the number of rows in the table.
func (t *Table) NumRows() int { return t.rows }

// NumBlocks returns the number of storage blocks (including the trailing
// partial block, if any).
func (t *Table) NumBlocks() int { return (t.rows + BlockSize - 1) / BlockSize }

// SetZoneMaps enables or disables zone-map block pruning at execution
// time. Zone maps are still maintained on insert either way, so pruning
// can be toggled without rebuilding the table. Results are identical in
// both modes; only blocks_pruned / rows_scanned accounting and speed
// differ.
func (t *Table) SetZoneMaps(enabled bool) { t.zonesOff = !enabled }

// ZoneMapsEnabled reports whether zone-map pruning is in effect.
func (t *Table) ZoneMapsEnabled() bool { return !t.zonesOff }

// Insert appends one row. Values must match the schema's arity and types:
// int/int64/time-like integers for TInt columns, string for TString
// columns. The row is encoded in full before any column is touched, so a
// type error leaves the table unchanged.
func (t *Table) Insert(values ...any) error {
	if len(values) != len(t.schema.Columns) {
		return fmt.Errorf("relq: table %s: %d values for %d columns",
			t.schema.Name, len(values), len(t.schema.Columns))
	}
	enc := make([]int64, len(values))
	for i, v := range values {
		e, err := encodeValue(t.schema.Columns[i], v)
		if err != nil {
			return err
		}
		enc[i] = e
	}
	t.appendRow(enc)
	return nil
}

// InsertInts appends one row of already-encoded column values, avoiding
// the boxing of Insert. The caller must supply exactly one int64 per
// column, with string columns already hash-encoded via HashString.
func (t *Table) InsertInts(values ...int64) error {
	if len(values) != len(t.schema.Columns) {
		return fmt.Errorf("relq: table %s: %d values for %d columns",
			t.schema.Name, len(values), len(t.schema.Columns))
	}
	t.appendRow(values)
	return nil
}

// appendRow appends one encoded row and folds it into the current block's
// zone maps, opening a fresh block when the previous one is full.
func (t *Table) appendRow(values []int64) {
	if t.rows%BlockSize == 0 {
		// First row of a new block: its value is the zone on both ends.
		for i, v := range values {
			t.cols[i] = append(t.cols[i], v)
			t.zmin[i] = append(t.zmin[i], v)
			t.zmax[i] = append(t.zmax[i], v)
		}
	} else {
		b := t.rows / BlockSize
		for i, v := range values {
			t.cols[i] = append(t.cols[i], v)
			if v < t.zmin[i][b] {
				t.zmin[i][b] = v
			}
			if v > t.zmax[i][b] {
				t.zmax[i][b] = v
			}
		}
	}
	t.rows++
}

func encodeValue(col Column, v any) (int64, error) {
	switch col.Type {
	case TInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		default:
			return 0, fmt.Errorf("relq: column %s wants an integer, got %T", col.Name, v)
		}
	case TString:
		s, ok := v.(string)
		if !ok {
			return 0, fmt.Errorf("relq: column %s wants a string, got %T", col.Name, v)
		}
		return HashString(s), nil
	default:
		return 0, fmt.Errorf("relq: column %s has unknown type", col.Name)
	}
}

// ColumnValues returns a copy of one column's stored int64 values (string
// columns come back as their hash codes). It exists for statistics and
// experiment code that builds alternative summaries over the same data;
// callers own the copy and may reorder it freely.
func (t *Table) ColumnValues(name string) []int64 {
	i := t.schema.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	out := make([]int64, len(t.cols[i]))
	copy(out, t.cols[i])
	return out
}

// HistogramBuckets is the default bucket budget for per-column histograms.
// With 64 equi-depth buckets a histogram serializes to roughly 1–1.3 kB,
// matching the paper's h = 6,473 bytes across the five indexed Anemone
// columns.
const HistogramBuckets = 64

// maxFrequencyDistinct is the distinct-value threshold below which an
// indexed column gets an exact frequency histogram instead of an equi-depth
// one.
const maxFrequencyDistinct = 64

// BuildSummary builds the table's data summary: one histogram per indexed
// column. Low-cardinality columns get exact frequency histograms; numeric
// columns get equi-depth histograms. The summary is also retained on the
// table so the executor can order conjuncts by estimated selectivity.
func (t *Table) BuildSummary() *TableSummary {
	ts := &TableSummary{
		Table:     t.schema.Name,
		TotalRows: int64(t.rows),
		Columns:   make(map[string]histogram.Histogram),
	}
	for i, col := range t.schema.Columns {
		if !col.Indexed {
			continue
		}
		if h := histogram.BuildFrequency(t.cols[i], maxFrequencyDistinct); h != nil {
			ts.Columns[col.Name] = h
			continue
		}
		// Exactly one copy: BuildEquiDepth sorts its input in place, and
		// sorting t.cols[i] itself would destroy row order and invalidate
		// the zone maps, so the copy below is required — and sufficient
		// (BuildEquiDepth does not copy again internally).
		vals := make([]int64, len(t.cols[i]))
		copy(vals, t.cols[i])
		ts.Columns[col.Name] = histogram.BuildEquiDepth(vals, HistogramBuckets)
	}
	t.lastSummary = ts
	return ts
}
