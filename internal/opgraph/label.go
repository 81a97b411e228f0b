package opgraph

import (
	"slices"
	"strconv"

	"vtrain/internal/profiler"
)

// labelKind is a node's role in the schedule ("AR-TP after the forward
// MHA", "backward receive", ...). The role fixes the node's kind, its
// computation operator, and the format of its lazily-composed label, so a
// graph stores only this one byte plus the label coordinates per node; the
// human-readable string is produced on demand by Node.Label, so graphs
// built for plain simulation (no trace capture) never pay any string
// formatting.
type labelKind uint8

const (
	lbFwdEmbedding labelKind = iota
	lbRecvFwd
	lbFwdMHA
	lbARTPFwdMHA
	lbFwdFFN
	lbARTPFwdFFN
	lbFwdLMHead
	lbBwdLMHead
	lbRecvBwd
	lbRecompMHA
	lbARTPRecompMHA
	lbRecompFFN
	lbARTPRecompFFN
	lbBwdFFN
	lbARTPBwdFFN
	lbBwdMHA
	lbARTPBwdMHA
	lbBwdEmbedding
	lbARDP
	lbWeightUpdate
)

// labelForm says which coordinate fields a label renders after its prefix.
type labelForm uint8

const (
	formMB     labelForm = iota // "<prefix>mb<micro>"
	formCMB                     // "<prefix>c<chunk> mb<micro>"
	formLMB                     // "<prefix>L<layer> mb<micro>"
	formS                       // "<prefix>s<stage>"
	formBucket                  // "<prefix>bucket<b> L[<lo>,<hi>) s<stage>"
)

// labelSpecs maps each role to its label format and to the kind and
// operator of its nodes (communication roles leave op at its zero value).
var labelSpecs = [...]struct {
	prefix string
	form   labelForm
	kind   NodeKind
	op     profiler.OpKind
}{
	lbFwdEmbedding:  {"Fwd Embedding ", formMB, Compute, profiler.FwdEmbedding},
	lbRecvFwd:       {"Recv Fwd ", formCMB, P2P, 0},
	lbFwdMHA:        {"Fwd MHA ", formLMB, Compute, profiler.FwdMHA},
	lbARTPFwdMHA:    {"AR-TP Fwd MHA ", formLMB, AllReduceTP, 0},
	lbFwdFFN:        {"Fwd FFN ", formLMB, Compute, profiler.FwdFFN},
	lbARTPFwdFFN:    {"AR-TP Fwd FFN ", formLMB, AllReduceTP, 0},
	lbFwdLMHead:     {"Fwd LMHead ", formMB, Compute, profiler.FwdLMHead},
	lbBwdLMHead:     {"Bwd LMHead ", formMB, Compute, profiler.BwdLMHead},
	lbRecvBwd:       {"Recv Bwd ", formCMB, P2P, 0},
	lbRecompMHA:     {"Recompute Fwd MHA ", formLMB, Compute, profiler.FwdMHA},
	lbARTPRecompMHA: {"AR-TP Recompute MHA ", formLMB, AllReduceTP, 0},
	lbRecompFFN:     {"Recompute Fwd FFN ", formLMB, Compute, profiler.FwdFFN},
	lbARTPRecompFFN: {"AR-TP Recompute FFN ", formLMB, AllReduceTP, 0},
	lbBwdFFN:        {"Bwd FFN ", formLMB, Compute, profiler.BwdFFN},
	lbARTPBwdFFN:    {"AR-TP Bwd FFN ", formLMB, AllReduceTP, 0},
	lbBwdMHA:        {"Bwd MHA ", formLMB, Compute, profiler.BwdMHA},
	lbARTPBwdMHA:    {"AR-TP Bwd MHA ", formLMB, AllReduceTP, 0},
	lbBwdEmbedding:  {"Bwd Embedding ", formMB, Compute, profiler.BwdEmbedding},
	lbARDP:          {"AR-DP ", formBucket, AllReduceDP, 0},
	lbWeightUpdate:  {"WeightUpdate ", formS, Compute, profiler.WeightUpdate},
}

// NumLabelKinds bounds the valid label-format selectors: a LabelRec with
// Kind >= NumLabelKinds is invalid and composes to "". Decoders reading
// label records from untrusted bytes reject such records up front.
const NumLabelKinds = len(labelSpecs)

// LabelRec is the complete coordinate set a label renders: the one-byte
// format selector plus the node fields the formats reference — one row of
// a LabelTable.
type LabelRec struct {
	Kind                                         uint8
	Stage, Micro, Chunk, Layer, LayerEnd, Bucket int32
}

// Valid reports whether the record's format selector is in range.
func (r LabelRec) Valid() bool { return int(r.Kind) < NumLabelKinds }

// rec extracts the node's label coordinates.
func (n *Node) rec() LabelRec {
	return LabelRec{
		Kind:  uint8(n.label),
		Stage: n.Stage, Micro: n.Micro, Chunk: n.Chunk,
		Layer: n.Layer, LayerEnd: n.LayerEnd, Bucket: n.Bucket,
	}
}

// Compose renders the record's human-readable label. Invalid records
// compose to the empty string rather than panicking.
func (r LabelRec) Compose() string {
	if !r.Valid() {
		return ""
	}
	sp := &labelSpecs[r.Kind]
	buf := make([]byte, 0, 48)
	buf = append(buf, sp.prefix...)
	switch sp.form {
	case formMB:
		buf = append(buf, 'm', 'b')
		buf = strconv.AppendInt(buf, int64(r.Micro), 10)
	case formCMB:
		buf = append(buf, 'c')
		buf = strconv.AppendInt(buf, int64(r.Chunk), 10)
		buf = append(buf, ' ', 'm', 'b')
		buf = strconv.AppendInt(buf, int64(r.Micro), 10)
	case formLMB:
		buf = append(buf, 'L')
		buf = strconv.AppendInt(buf, int64(r.Layer), 10)
		buf = append(buf, ' ', 'm', 'b')
		buf = strconv.AppendInt(buf, int64(r.Micro), 10)
	case formS:
		buf = append(buf, 's')
		buf = strconv.AppendInt(buf, int64(r.Stage), 10)
	case formBucket:
		buf = append(buf, "bucket"...)
		buf = strconv.AppendInt(buf, int64(r.Bucket), 10)
		buf = append(buf, ' ', 'L', '[')
		buf = strconv.AppendInt(buf, int64(r.Layer), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.LayerEnd), 10)
		buf = append(buf, ')', ' ', 's')
		buf = strconv.AppendInt(buf, int64(r.Stage), 10)
	}
	return string(buf)
}

// Label composes the node's human-readable tag, e.g. "Fwd MHA L3 mb2".
// Labels are lazy: nothing is formatted at graph-construction time, and the
// output is byte-identical to the eager fmt.Sprintf labels earlier versions
// stored on every node. Only trace rendering and tests should call this; the
// simulation hot path never does.
func (n *Node) Label() string { return n.rec().Compose() }

// LabelTable holds label records in columnar form: one flat column per
// coordinate instead of a slice of structs. It is the graph's own node
// storage (see Graph), the form lowered task graphs render trace labels
// from, and exactly the artifact store's on-disk layout — a disk-loaded
// graph aliases the columns straight out of the read buffer, with no
// per-record assembly loop. Columns are read-only once built; At
// materializes a record on demand (trace rendering only).
type LabelTable struct {
	Kinds                                        []uint8
	Stage, Micro, Chunk, Layer, LayerEnd, Bucket []int32
}

// Len returns the number of records in the table.
func (t *LabelTable) Len() int { return len(t.Kinds) }

// At materializes record i.
func (t *LabelTable) At(i int) LabelRec {
	return LabelRec{
		Kind:  t.Kinds[i],
		Stage: t.Stage[i], Micro: t.Micro[i], Chunk: t.Chunk[i],
		Layer: t.Layer[i], LayerEnd: t.LayerEnd[i], Bucket: t.Bucket[i],
	}
}

// LabelTable copies the per-node label coordinates out of the graph in
// columnar form, without retaining the graph's storage.
func (g *Graph) LabelTable() *LabelTable {
	c := &g.cols
	return &LabelTable{
		Kinds: slices.Clone(c.Kinds),
		Stage: slices.Clone(c.Stage), Micro: slices.Clone(c.Micro), Chunk: slices.Clone(c.Chunk),
		Layer: slices.Clone(c.Layer), LayerEnd: slices.Clone(c.LayerEnd), Bucket: slices.Clone(c.Bucket),
	}
}
