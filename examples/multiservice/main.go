// Multi-service gateway: the paper's architecture loads one protocol
// handler per service into a client's gateway ("a client that is
// communicating with multiple servers would have multiple handlers loaded
// in its gateway", §5.2). One client talks to a fast quote service and a
// slow analytics service through a single shared endpoint, each handler
// holding its own QoS contract and private information repository.
//
//	go run ./examples/multiservice
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"aqua"
)

// handler answers every method of one service.
func handler(service string) aqua.Handler {
	return func(method string, payload []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("%s/%s ok", service, method)), nil
	}
}

func main() {
	// Quotes answer in ~20ms; analytics needs ~150ms. Both pools live on
	// one network so a single gateway endpoint reaches them.
	quotes, err := aqua.NewCluster("quotes", 4, handler("quotes"),
		aqua.WithSimulatedLoad(20*time.Millisecond, 8*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	defer quotes.Close()
	analytics, err := aqua.NewCluster("analytics", 5, handler("analytics"),
		aqua.WithSimulatedLoad(150*time.Millisecond, 60*time.Millisecond),
		aqua.WithSharedNetwork(quotes))
	if err != nil {
		log.Fatal(err)
	}
	defer analytics.Close()

	// Different QoS contracts per service, as each handler stores its own.
	g, err := aqua.NewGateway("trader", map[*aqua.Cluster]aqua.ClientConfig{
		quotes:    {QoS: aqua.QoS{Deadline: 50 * time.Millisecond, MinProbability: 0.95}},
		analytics: {QoS: aqua.QoS{Deadline: 300 * time.Millisecond, MinProbability: 0.8}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()

	ctx := context.Background()
	for i := 0; i < 12; i++ {
		start := time.Now()
		if _, err := g.Call(ctx, "quotes", "spot", []byte("EURUSD")); err != nil {
			log.Fatal(err)
		}
		qTr := time.Since(start)

		start = time.Now()
		if _, err := g.Call(ctx, "analytics", "var", []byte("portfolio-7")); err != nil {
			log.Fatal(err)
		}
		aTr := time.Since(start)
		fmt.Printf("round %2d  quotes=%-12v analytics=%v\n", i, qTr, aTr)
	}

	qs, err := g.Stats("quotes")
	if err != nil {
		log.Fatal(err)
	}
	as, err := g.Stats("analytics")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquotes:    redundancy %.2f, failures %d/%d (deadline 50ms, Pc 0.95)\n",
		qs.MeanRedundancy(), qs.TimingFailures, qs.Completed)
	fmt.Printf("analytics: redundancy %.2f, failures %d/%d (deadline 300ms, Pc 0.80)\n",
		as.MeanRedundancy(), as.TimingFailures, as.Completed)
	fmt.Println("one gateway, two handlers, two QoS contracts, two private repositories.")
}
