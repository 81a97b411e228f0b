package vtrain_bench

import (
	"fmt"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
	"vtrain/internal/taskgraph"
)

// BenchmarkReplayBatch isolates the batched replay core: one structural
// graph (Megatron 3.6B, pipeline depth 4, 16 micro-batches at operator
// fidelity), replayed for 1, 4, and 16 bound duration tables per pass. The
// ms_per_plan metric is the per-plan cost of a replay at that width — the
// drop from width 1 to 16 is the structural walk (FIFO traversal, CSR
// decoding, dependency counting) amortizing across lanes while each lane's
// float work stays constant. ns_per_task_lane divides the same time by
// tasks x width: the replay layer's unit cost, comparable across graphs.
func BenchmarkReplayBatch(b *testing.B) {
	m := model.Megatron3_6B()
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	cm := comm.NewModel(c)

	// All tables bind one structure: tensor and data widths never change
	// the graph, so the batch mimics a sweep's shape group.
	base := parallel.Plan{Pipeline: 4, MicroBatch: 1, GlobalBatch: 64, GradientBuckets: 2}
	og, err := opgraph.Build(m, withWidths(base, 1, 1), c)
	if err != nil {
		b.Fatal(err)
	}
	g := taskgraph.Lower(og, prof, taskgraph.OperatorLevel)

	var tables []*taskgraph.DurationTable
	for _, t := range []int{1, 2, 4, 8} {
		for _, d := range []int{1, 2, 4, 8} {
			tables = append(tables, g.Bind(prof, cm, withWidths(base, t, d), c))
		}
	}

	for _, width := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			batch := tables[:width]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.ReplayBatchContended(batch, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perPlan := b.Elapsed().Seconds() * 1e3 / float64(b.N) / float64(width)
			b.ReportMetric(perPlan, "ms_per_plan")
			b.ReportMetric(perPlan*1e6/float64(g.NumTasks()), "ns_per_task_lane")
		})
	}
}

// withWidths returns base with the given tensor and data widths, keeping
// the micro-batch count fixed by scaling the global batch with d.
func withWidths(base parallel.Plan, t, d int) parallel.Plan {
	p := base
	p.Tensor, p.Data = t, d
	p.GlobalBatch = base.GlobalBatch * d
	return p
}
