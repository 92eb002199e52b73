package selection

import (
	"fmt"
	"testing"
	"time"

	"aqua/internal/model"
	"aqua/internal/wire"
)

func benchTable(n int) []model.ReplicaProbability {
	table := make([]model.ReplicaProbability, n)
	for i := range table {
		table[i] = row(fmt.Sprintf("replica-%03d", i), 0.2+0.75*float64(i)/float64(n))
	}
	return ranked(table...)
}

// BenchmarkAlgorithm1 times the subset-selection phase alone, which the
// paper reports as ~10% of the per-request overhead.
func BenchmarkAlgorithm1(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := NewDynamic()
			in := Input{
				Table: benchTable(n),
				QoS:   wire.QoS{Deadline: 150 * time.Millisecond, MinProbability: 0.95},
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := d.Select(in)
				if len(res.Selected) == 0 {
					b.Fatal("empty selection")
				}
			}
		})
	}
}

func BenchmarkStrategies(b *testing.B) {
	in := Input{
		Table: benchTable(16),
		QoS:   wire.QoS{Deadline: 150 * time.Millisecond, MinProbability: 0.9},
	}
	for _, s := range []Strategy{
		NewDynamic(), NewDynamicMulti(2), SingleBest{}, FixedK{K: 4}, All{},
		NewRandom(4, 1), NewRoundRobin(4),
	} {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := s.Select(in)
				if len(res.Selected) == 0 {
					b.Fatal("empty selection")
				}
			}
		})
	}
}
