package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed"
)

// voteByMap is the k-NN vote counted with a map and a first-seen order
// slice: the reference vote's stack tally is held to.
func voteByMap(p *PreparedImpute, nn []embed.Neighbor) (string, bool) {
	if p.req.Strategy == ImputeLLM {
		return "", false
	}
	vote := nn
	if len(vote) > p.req.Neighbors {
		vote = vote[:p.req.Neighbors]
	}
	votes := make(map[string]int)
	var order []string
	for _, nb := range vote {
		v, _ := p.trainRow(nb).Get(p.req.TargetField)
		if votes[v] == 0 {
			order = append(order, v)
		}
		votes[v]++
	}
	best, bestN := "", 0
	for _, v := range order {
		if votes[v] > bestN {
			best, bestN = v, votes[v]
		}
	}
	return best, p.req.Strategy == ImputeKNN || (len(vote) > 0 && bestN == len(vote))
}

// TestVoteMatchesMapCount: on random neighbour lists over a few values,
// about as many as the tally's stack array holds, or hundreds — ties
// everywhere, a row without the target, rows remapped as under duplicate
// IDs — vote decides exactly what the map count does.
func TestVoteMatchesMapCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 7))
	for trial := 0; trial < 3000; trial++ {
		values, size := 1+rng.IntN(3), 24
		switch trial % 8 {
		case 0:
			values = 24 // about as many as the stack array holds
		case 4:
			values, size = 300, 400 // far more: the map takes over
		}
		train := make([]dataset.Record, 1+rng.IntN(size))
		for i := range train {
			train[i] = dataset.Record{ID: fmt.Sprint("t", i)}
			if k := rng.IntN(values + 1); k < values {
				train[i].Fields = []dataset.Field{{Name: "city", Value: fmt.Sprint("city", k)}}
			}
		}
		p := &PreparedImpute{req: ImputeRequest{TargetField: "city", Train: train, Neighbors: 1 + rng.IntN(size),
			Strategy: []ImputeStrategy{ImputeKNN, ImputeHybrid, ImputeLLM}[rng.IntN(3)]}}
		positions := len(train)
		if rng.IntN(3) == 0 {
			positions = 1 + rng.IntN(len(train))
			p.rows = make([]int32, positions)
			for i := range p.rows {
				p.rows[i] = int32(rng.IntN(len(train)))
			}
		}
		nn := make([]embed.Neighbor, rng.IntN(size))
		for i := range nn {
			nn[i] = embed.Neighbor{Pos: rng.IntN(positions)}
		}
		got, gotOK := p.vote(nn)
		want, wantOK := voteByMap(p, nn)
		if got != want || gotOK != wantOK {
			t.Fatalf("trial %d: vote %q/%v, the map count %q/%v, over %+v", trial, got, gotOK, want, wantOK, nn)
		}
	}
}

// BenchmarkVoteLargeK votes over k = 4,000 neighbours whose target values
// all differ: a vote past its stack array must not scan every value so
// far for each neighbour.
func BenchmarkVoteLargeK(b *testing.B) {
	const k = 4000
	train := make([]dataset.Record, k)
	nn := make([]embed.Neighbor, k)
	for i := range train {
		train[i] = dataset.Record{ID: fmt.Sprint("t", i), Fields: []dataset.Field{{Name: "city", Value: fmt.Sprint("city", i)}}}
		nn[i] = embed.Neighbor{Pos: i}
	}
	p := &PreparedImpute{req: ImputeRequest{TargetField: "city", Train: train, Neighbors: k, Strategy: ImputeKNN}}
	b.ReportAllocs()
	for b.Loop() {
		p.vote(nn)
	}
}
