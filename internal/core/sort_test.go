package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestRankByRatingMatchesStableSort: the rating sort's order is a stable
// sort by rating, highest first, on every length from 1 to 512 and every
// amount of ties, from one rating shared by all items to ratings that are
// mostly distinct.
func TestRankByRatingMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 1; n <= 512; n++ {
		for _, levels := range []int{1, 2, 3, 10, 1000} {
			items := make([]string, n)
			ratings := make([]int, n)
			for i := range items {
				items[i] = fmt.Sprintf("item %d", i)
				ratings[i] = 1 + rng.Intn(levels)
			}
			type rated struct {
				item   string
				rating int
			}
			want := make([]rated, n)
			for i := range want {
				want[i] = rated{items[i], ratings[i]}
			}
			sort.SliceStable(want, func(a, b int) bool { return want[a].rating > want[b].rating })
			wantItems := make([]string, n)
			for i, r := range want {
				wantItems[i] = r.item
			}
			if got := rankByRating(items, ratings); !reflect.DeepEqual(got, wantItems) {
				t.Fatalf("n=%d, %d rating levels: rankByRating = %v, sort.SliceStable gives %v", n, levels, got, wantItems)
			}
		}
	}
}
