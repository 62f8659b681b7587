package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/consistency"
	"repro/internal/dataset"
)

// answerSort handles single-prompt list sorting, the baseline strategy of
// Tables 1 and 2, with its characteristic failure modes: blurred middle
// for semantic criteria, and omissions plus hallucinations on long lists.
func (o *Oracle) answerSort(t task, rng *rand.Rand, scale float64) string {
	crit := o.criterionFor(t.criterion)
	items := append([]string(nil), t.items...)
	n := len(items)

	if crit.Lex {
		sort.Strings(items)
		// Occasional local disorder even on a task the model is good at.
		for rng.Float64() < o.cfg.SwapRate*scale && n > 2 {
			i := rng.Intn(n - 1)
			items[i], items[i+1] = items[i+1], items[i]
		}
	} else {
		// Perceived score: salient items (sharing a stem with the
		// criterion) are ranked confidently; the rest blur toward noise —
		// the paper's "chocolate in the title first, rest seemingly
		// random" observation, and "lost in the middle" in general.
		stem := criterionStem(t.criterion)
		perceived := make([]float64, n)
		for i, it := range items {
			s, known := 0.0, false
			if crit.Score != nil {
				s, known = crit.Score(it)
			}
			switch {
			case stem != "" && strings.Contains(strings.ToLower(it), stem):
				perceived[i] = 1 + s + rng.NormFloat64()*o.cfg.SortSalientSigma*scale
			case known:
				perceived[i] = 0.3*s + rng.NormFloat64()*o.cfg.SortBlurSigma*scale
			default:
				perceived[i] = rng.NormFloat64() * o.cfg.SortBlurSigma * scale
			}
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return perceived[idx[a]] > perceived[idx[b]] })
		sorted := make([]string, n)
		for i, j := range idx {
			sorted[i] = items[j]
		}
		items = sorted
	}

	// Long-list degradation: omission rate grows linearly beyond 20 items.
	if omit := o.omissionRate(n) * scale; omit > 0 {
		kept := items[:0]
		for _, it := range items {
			if rng.Float64() >= omit {
				kept = append(kept, it)
			}
		}
		// Never drop everything; a real model returns something.
		if len(kept) == 0 {
			kept = items[:1]
		}
		items = kept
	}
	// Hallucinations: invented near-miss items at random positions.
	if n > 20 {
		for h := poisson(rng, o.cfg.HallucinationRate*scale); h > 0; h-- {
			fake := hallucinate(rng, t.items)
			pos := rng.Intn(len(items) + 1)
			items = consistency.InsertAt(items, fake, pos)
		}
	}

	var b strings.Builder
	b.WriteString("Here are the items sorted from most to least:\n")
	for i, it := range items {
		fmt.Fprintf(&b, "%d. %s\n", i+1, it)
	}
	return b.String()
}

func (o *Oracle) omissionRate(n int) float64 {
	if n <= 20 {
		return 0
	}
	frac := float64(n-20) / 80
	if frac > 1.5 {
		frac = 1.5
	}
	return o.cfg.OmissionAt100 * frac
}

// answerCompare handles pairwise comparisons with the Thurstone error
// model plus position bias. Template variants shift the noise by a
// deterministic per-(model, variant) factor — real models are sensitive
// to phrasing in model-specific ways (Section 4). A chain-of-thought
// instruction tightens the noise but multiplies the completion length,
// and occasionally produces the contradictory restating answer the paper
// observed, with the real answer only at the end.
func (o *Oracle) answerCompare(t task, rng *rand.Rand, scale float64) string {
	scale *= o.variantFactor(t.variant)
	if t.cot {
		scale *= 0.75 // reasoning helps
	}
	crit := o.criterionFor(t.criterion)
	var pA float64 // probability of answering "A"
	switch {
	case crit.Lex:
		truthA := strings.ToLower(strings.TrimSpace(t.a)) < strings.ToLower(strings.TrimSpace(t.b))
		errRate := o.cfg.AlphaCompareErr * scale * (1 + 0.6*float64(sharedPrefix(t.a, t.b)))
		if errRate > 0.45 {
			errRate = 0.45
		}
		if truthA {
			pA = 1 - errRate
		} else {
			pA = errRate
		}
	case crit.Score != nil:
		sa, okA := crit.Score(t.a)
		sb, okB := crit.Score(t.b)
		if okA && okB {
			pA = phi((sa - sb) / (o.cfg.ComparisonSigma * math.Sqrt2 * scale))
		} else {
			pA = 0.5
		}
	default:
		pA = 0.5
	}
	pA += o.cfg.PositionBias * scale
	answerA := rng.Float64() < pA
	letter := "B"
	if answerA {
		letter = "A"
	}
	if t.cot {
		return cotCompareText(rng, letter)
	}
	if answerA {
		return o.verbose(rng, "A", "Considering both carefully, Item A exhibits the property more strongly than Item B does, so Item A ranks higher. I choose A.")
	}
	return o.verbose(rng, "B", "Weighing the two options against the stated dimension, Item B comes out ahead of Item A on balance. I choose B.")
}

// variantFactor derives a deterministic noise multiplier in roughly
// [0.8, 1.3] for a comparison template variant: each model has its own
// favourite phrasing, which is exactly why the planner profiles variants.
func (o *Oracle) variantFactor(variant int) float64 {
	if variant == 0 {
		return 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|variant=%d", o.name, variant)
	return 0.8 + float64(h.Sum64()%1000)/1000*0.5
}

// cotCompareText emits a chain-of-thought style response: multi-sentence
// reasoning that may restate both options, with the committed answer in a
// final "Answer: X" line — the extraction challenge of Section 4.
func cotCompareText(rng *rand.Rand, letter string) string {
	other := "B"
	if letter == "B" {
		other = "A"
	}
	var b strings.Builder
	b.WriteString("Let me think step by step. ")
	b.WriteString("First, the stated dimension matters more than surface impressions. ")
	if rng.Float64() < 0.3 {
		// The contradictory restatement failure mode.
		fmt.Fprintf(&b, "At first glance the stronger one seems to be %s. ", other)
		b.WriteString("However, weighing the evidence again changes the picture. ")
	}
	fmt.Fprintf(&b, "Comparing the two directly, %s holds the edge on the relevant property. ", letter)
	b.WriteString("Summing up the considerations above leads to a clear conclusion.\n")
	fmt.Fprintf(&b, "Answer: %s\n", letter)
	return b.String()
}

// answerRate quantises the latent score to the requested scale with
// Gaussian noise — the coarse, tie-heavy signal of the rating strategy.
func (o *Oracle) answerRate(t task, rng *rand.Rand, scale float64) string {
	crit := o.criterionFor(t.criterion)
	r := 1 + rng.Intn(t.scale) // unknown item: arbitrary but deterministic
	if crit.Score != nil {
		if s, ok := crit.Score(t.a); ok {
			noisy := s + rng.NormFloat64()*o.cfg.RatingSigma*scale
			r = int(math.Round(1 + float64(t.scale-1)*noisy))
			if r < 1 {
				r = 1
			}
			if r > t.scale {
				r = t.scale
			}
		}
	}
	if o.wordy(rng) {
		return fmt.Sprintf("I would rate this item %d out of %d.", r, t.scale)
	}
	return strconv.Itoa(r)
}

// answerMatch thresholds surface similarity with logistic noise: obvious
// duplicates and obvious non-duplicates are answered reliably, borderline
// (heavily perturbed) duplicates are usually missed — the high-precision /
// low-recall profile of Table 3.
func (o *Oracle) answerMatch(t task, rng *rand.Rand, scale float64) string {
	margin := similarity(t.a, t.b) - o.cfg.MatchThreshold + rng.NormFloat64()*o.cfg.MatchSigma*scale
	if margin > 0 {
		return o.verbose(rng, "Yes", "Yes, these citations refer to the same paper.")
	}
	return o.verbose(rng, "No", "No, the two citations are different.")
}

// answerImpute fills a missing attribute from the oracle's knowledge
// base. Without examples the answer comes back in the model's own
// canonical form (formatting drift); with examples the model usually
// copies the demonstrated gold form.
func (o *Oracle) answerImpute(t task, rng *rand.Rand, scale float64) string {
	// Few-shot examples sharpen the model: they demonstrate the task on
	// neighbouring records, lifting both recall of the relevant fact and
	// inference from indirect evidence (the paper's "examples can help
	// improve accuracy").
	skill := o.cfg.ImputeSkill
	descSkill := o.cfg.DescriptionSkill
	if len(t.examples) > 0 {
		skill += (1 - skill) * 0.6
		descSkill += (1 - descSkill) * 0.6
	}
	skill /= scale
	descSkill /= scale

	gold, found := "", false
	switch t.field {
	case "city":
		gold, found = restaurantKnowledge(t.record)
	case "manufacturer":
		gold, found = productKnowledge(t.record)
		if !found {
			// SKU prefix in the model number, then (ambiguous) category
			// evidence from the description.
			if g, ok := productSKUKnowledge(t.record); ok && rng.Float64() < descSkill {
				gold, found = g, true
			} else if cands := dataset.ManufacturerCandidates(t.record); len(cands) > 0 &&
				rng.Float64() < descSkill*0.6 {
				gold, found = cands[rng.Intn(len(cands))], true
			}
		}
	}
	if !found || rng.Float64() >= skill {
		gold = o.wrongImputeGuess(t.field, gold, rng)
	}
	// Formatting: examples pin the gold form; otherwise the model answers
	// in its own canonical display form.
	value := gold
	if len(t.examples) > 0 {
		if rng.Float64() >= o.cfg.FormatAdherence {
			value = displayForm(t.field, gold)
		}
	} else {
		value = displayForm(t.field, gold)
	}
	if o.wordy(rng) {
		return "The value is " + value
	}
	return value
}

// wrongImputeGuess picks a plausible but wrong value, never the supplied
// correct one when avoidable.
func (o *Oracle) wrongImputeGuess(field, avoid string, rng *rand.Rand) string {
	var pool []string
	switch field {
	case "city":
		pool = dataset.CityGoldLabels()
	case "manufacturer":
		pool = dataset.ManufacturerGoldLabels()
	default:
		return "unknown"
	}
	for tries := 0; tries < 8; tries++ {
		g := pool[rng.Intn(len(pool))]
		if g != avoid {
			return g
		}
	}
	return pool[0]
}

func displayForm(field, gold string) string {
	switch field {
	case "city":
		if d, ok := dataset.LLMCityForm(gold); ok {
			return d
		}
	case "manufacturer":
		if d, ok := dataset.LLMManufacturerForm(gold); ok {
			return d
		}
	}
	return gold
}

// answerFilter checks a predicate with logistic noise keyed to the item's
// decision margin: borderline items flip often, obvious ones rarely.
func (o *Oracle) answerFilter(t task, rng *rand.Rand, scale float64) string {
	truth, margin := o.predicateFor(t.predicate).Truth(t.a)
	pCorrect := sigmoid(margin / (o.cfg.FilterSigma * scale))
	ans := truth
	if rng.Float64() >= pCorrect {
		ans = !ans
	}
	if ans {
		return o.verbose(rng, "Yes", "Yes, the item satisfies the condition.")
	}
	return o.verbose(rng, "No", "No, it does not satisfy the condition.")
}

// answerCount eyeballs the fraction of items satisfying a predicate:
// noisy and slightly biased, but O(1) in calls — the coarse counting task.
func (o *Oracle) answerCount(t task, rng *rand.Rand, scale float64) string {
	pred := o.predicateFor(t.predicate)
	truthy := 0
	for _, it := range t.items {
		if ans, _ := pred.Truth(it); ans {
			truthy++
		}
	}
	frac := 0.0
	if len(t.items) > 0 {
		frac = float64(truthy) / float64(len(t.items))
	}
	est := frac + o.cfg.CountBias + rng.NormFloat64()*o.cfg.CountSigma*scale
	if est < 0 {
		est = 0
	}
	if est > 1 {
		est = 1
	}
	return fmt.Sprintf("About %.0f%% of the items satisfy the condition.", est*100)
}

// answerGroup partitions a batch of records into duplicate groups using
// the same similarity perception as answerMatch, but sloppier — coarse
// batch tasks carry extra noise.
func (o *Oracle) answerGroup(t task, rng *rand.Rand, scale float64) string {
	n := len(t.items)
	sc := getTrigramScratch()
	defer trigramPool.Put(sc)
	uf := consistency.NewUnionFind()
	keys := make([]string, n)
	for i, it := range t.items {
		keys[i] = strconv.Itoa(i)
		uf.Add(keys[i])
		sc.add(it)
	}
	sigma := (o.cfg.MatchSigma + o.cfg.GroupExtraSigma) * scale
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			margin := sc.jaccard(i, j, t.items[i], t.items[j]) - o.cfg.MatchThreshold + rng.NormFloat64()*sigma
			if margin > 0 {
				uf.Union(keys[i], keys[j])
			}
		}
	}
	groups := uf.Groups()
	reps := make([]string, 0, len(groups))
	for rep := range groups {
		reps = append(reps, rep)
	}
	sort.Strings(reps)
	var b strings.Builder
	for _, rep := range reps {
		members := groups[rep]
		sort.Strings(members)
		refs := make([]string, len(members))
		for i, m := range members {
			idx, _ := strconv.Atoi(m)
			refs[i] = "R" + strconv.Itoa(idx+1)
		}
		fmt.Fprintf(&b, "group: %s\n", strings.Join(refs, ", "))
	}
	return b.String()
}

// answerVerify re-derives its own answer to the original question (with
// this prompt's independent noise) and agrees iff the answers coincide —
// the self-verification follow-up of Section 3.5.
func (o *Oracle) answerVerify(t task, rng *rand.Rand, temp float64) string {
	own := o.answer(t.question, rng, temp)
	if agreeAnswers(own, t.answer) {
		return "Yes"
	}
	return "No"
}

// agreeAnswers compares two free-text answers leniently: identical
// normalised text, or matching leading yes/no tokens, or one containing
// the other.
func agreeAnswers(a, b string) bool {
	na, nb := normText(a), normText(b)
	if na == nb {
		return true
	}
	ya, oka := leadingYesNo(na)
	yb, okb := leadingYesNo(nb)
	if oka && okb {
		return ya == yb
	}
	return strings.Contains(na, nb) || strings.Contains(nb, na)
}

func leadingYesNo(s string) (bool, bool) {
	switch {
	case strings.HasPrefix(s, "yes"):
		return true, true
	case strings.HasPrefix(s, "no"):
		return false, true
	}
	return false, false
}

// answerCategorize assigns the item to the perceived-closest category.
func (o *Oracle) answerCategorize(t task, rng *rand.Rand, scale float64) string {
	sc := getTrigramScratch()
	defer trigramPool.Put(sc)
	sc.add(t.a)
	best, bestScore := "", math.Inf(-1)
	for i, cat := range t.items {
		sc.add(cat)
		s := sc.jaccard(0, i+1, t.a, cat) + rng.NormFloat64()*0.05*scale
		if s > bestScore {
			best, bestScore = cat, s
		}
	}
	if best == "" {
		return "uncategorized"
	}
	return best
}

// answerDiscover proposes category names from the leading content word of
// each sample item — a cheap but honest clustering-scheme discovery.
func (o *Oracle) answerDiscover(t task) string {
	seen := make(map[string]bool)
	var cats []string
	for _, it := range t.items {
		fields := strings.Fields(normText(it))
		if len(fields) == 0 {
			continue
		}
		w := fields[len(fields)-1] // trailing word is usually the head noun
		if !seen[w] {
			seen[w] = true
			cats = append(cats, w)
		}
		if len(cats) >= t.max {
			break
		}
	}
	if len(cats) == 0 {
		return "general"
	}
	return strings.Join(cats, "\n")
}

// criterionStem extracts the salient keyword of a criterion phrase: the
// longest content word, crudely de-suffixed ("chocolatey" -> "chocolate").
func criterionStem(criterion string) string {
	longest := ""
	for _, w := range strings.Fields(strings.ToLower(criterion)) {
		if len(w) > len(longest) {
			longest = w
		}
	}
	if len(longest) < 6 {
		return ""
	}
	for _, suffix := range []string{"ey", "y", "ness", "ed", "ing"} {
		if strings.HasSuffix(longest, suffix) && len(longest)-len(suffix) >= 5 {
			return longest[:len(longest)-len(suffix)]
		}
	}
	return longest
}

// sharedPrefix counts leading characters two strings share (case-folded),
// capped at 4 — the difficulty driver for alphabetical comparisons.
func sharedPrefix(a, b string) int {
	la, lb := strings.ToLower(a), strings.ToLower(b)
	n := 0
	for n < len(la) && n < len(lb) && la[n] == lb[n] {
		n++
		if n == 4 {
			break
		}
	}
	return n
}

// hallucinate invents a near-miss item: a mutation of a real item that is
// not itself in the set.
func hallucinate(rng *rand.Rand, items []string) string {
	in := make(map[string]bool, len(items))
	for _, it := range items {
		in[it] = true
	}
	for tries := 0; tries < 10; tries++ {
		base := items[rng.Intn(len(items))]
		r := []rune(base)
		if len(r) < 3 {
			continue
		}
		i := 1 + rng.Intn(len(r)-1)
		var fake string
		switch rng.Intn(3) {
		case 0:
			fake = string(r[:i]) + string(r[i-1]) + string(r[i:]) // double a letter
		case 1:
			fake = string(r[:i-1]) + string(r[i:]) // drop a letter
		default:
			fake = base + "s"
		}
		if !in[fake] {
			return fake
		}
	}
	return "item"
}

// phi is the standard normal CDF.
func phi(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// poisson draws a Poisson variate by inversion; adequate for the small
// rates used here.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 50 {
			return k
		}
	}
}

// answerCompareBatch answers several comparisons from one prompt. Packing
// more pairs into a prompt widens every noise source (the model divides
// its attention) and occasionally drops a pair entirely — the accuracy
// cost of the Section 4 batch-size lever.
func (o *Oracle) answerCompareBatch(t task, rng *rand.Rand, scale float64) string {
	nPairs := len(t.items) / 2
	batchScale := scale * (1 + o.cfg.BatchBlurPerPair*float64(nPairs-1))
	skip := o.cfg.BatchSkipPerPair * float64(nPairs-1)
	var b strings.Builder
	for i := 0; i < nPairs; i++ {
		if nPairs > 1 && rng.Float64() < skip {
			continue // silently dropped, like items lost from long sorts
		}
		sub := task{kind: taskCompare, a: t.items[2*i], b: t.items[2*i+1], criterion: t.criterion}
		ans := o.answerCompare(sub, rng, batchScale)
		letter := "B"
		if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(ans)), "A") ||
			strings.Contains(ans, "I choose A") {
			letter = "A"
		}
		fmt.Fprintf(&b, "%d: %s\n", i+1, letter)
	}
	if b.Len() == 0 {
		return "I could not process the pairs."
	}
	return b.String()
}
