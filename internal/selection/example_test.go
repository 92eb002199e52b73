package selection_test

import (
	"fmt"
	"time"

	"aqua/internal/model"
	"aqua/internal/selection"
	"aqua/internal/wire"
)

// ExampleDynamic_Select reproduces Algorithm 1 on a hand-built probability
// table: replicas predicted at 0.9, 0.8, 0.5, and 0.2 for the client's
// deadline, with Pc = 0.8.
func ExampleDynamic_Select() {
	table := []model.ReplicaProbability{ // ranked, as the predictor returns it
		{ID: "r1", Probability: 0.9},
		{ID: "r2", Probability: 0.8},
		{ID: "r3", Probability: 0.5},
		{ID: "r4", Probability: 0.2},
	}
	algo := selection.NewDynamic()
	res := algo.Select(selection.Input{
		Table: table,
		QoS:   wire.QoS{Deadline: 100 * time.Millisecond, MinProbability: 0.8},
	})
	// r1 is the m0 crash reserve; X = {r2} already satisfies Pc = 0.8, so
	// K = {r1, r2} and the set tolerates either member crashing.
	fmt.Println("selected:", res.Selected)
	fmt.Printf("P_K(t) = %.3f\n", res.Predicted)
	// Output:
	// selected: [r1 r2]
	// P_K(t) = 0.980
}

// ExampleSubsetProbability evaluates the paper's Equation 1.
func ExampleSubsetProbability() {
	// Three replicas, each 50% likely to answer in time: at least one
	// timely response arrives with probability 1 - 0.5^3.
	p := model.SubsetProbability([]model.ReplicaProbability{
		{ID: "r1", Probability: 0.5}, {ID: "r2", Probability: 0.5}, {ID: "r3", Probability: 0.5},
	})
	fmt.Printf("%.3f\n", p)
	// Output:
	// 0.875
}
