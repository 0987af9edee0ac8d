package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// appendPair builds the same logical dataset twice: once cold over the full
// slice, once by appending the tail to a base engine that has already built
// (a random subset of) its columns. With plain set, the registry has no
// dictionary hints. Every test then asserts the two are indistinguishable
// query-for-query.
func appendPair(rng *rand.Rand, base, added []row, plain bool) (appended, cold *Engine[row], err error) {
	all := append(append([]row{}, base...), added...)
	newReg := testDictRegistry
	if plain {
		newReg = testIndexedRegistry
	}
	baseEng := NewEngine(newReg(), base)
	// Warm a random subset of the base columns (and its selectivity history)
	// with a few real scans, so the append seals a mix of built and
	// never-touched columns.
	for i := rng.Intn(4); i > 0; i-- {
		if _, err := baseEng.Scan(randomQuery(rng)); err != nil {
			return nil, nil, err
		}
	}
	appended, err = NewEngineAppend(newReg(), baseEng, all)
	if err != nil {
		return nil, nil, err
	}
	return appended, NewEngine(newReg(), all), nil
}

// TestAppendMatchesColdBuild is the randomized seal equivalence suite: for
// many (base, delta) splits — dictionary and plain layouts, empty deltas and
// empty bases included — every random scan and aggregate over the appended
// engine is identical to the cold engine over the union.
func TestAppendMatchesColdBuild(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			nBase := rng.Intn(400)
			nAdded := rng.Intn(250)
			switch seed % 4 {
			case 1:
				nAdded = 0 // seal with an empty delta
			case 2:
				nBase = 0 // append to an empty engine
			}
			base := randomRows(rng, nBase)
			added := randomRows(rng, nAdded)
			appended, cold, err := appendPair(rng, base, added, seed%3 == 0)
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			if appended.Len() != nBase+nAdded {
				t.Fatalf("appended engine has %d rows, want %d", appended.Len(), nBase+nAdded)
			}
			for i := 0; i < 25; i++ {
				q := randomQuery(rng)
				got, err1 := appended.Scan(q)
				want, err2 := cold.Scan(q)
				if err1 != nil || err2 != nil {
					t.Fatalf("query %d (%+v): appended err %v, cold err %v", i, q, err1, err2)
				}
				requireSameResult(t, q, got, want)
			}
			for i := 0; i < 15; i++ {
				a := randomAggregate(rng)
				got, err1 := appended.Aggregate(a)
				want, err2 := cold.Aggregate(a)
				if err1 != nil || err2 != nil {
					t.Fatalf("aggregate %d (%+v): appended err %v, cold err %v", i, a, err1, err2)
				}
				requireSameAggregate(t, a, got, want)
			}
		})
	}
}

// TestAppendReusesBuiltColumns pins the seal itself: a column the base
// engine materialized must not be rebuilt through the extractor for old
// rows. The extractor counts its calls; after the append only the added
// rows may pay it.
func TestAppendReusesBuiltColumns(t *testing.T) {
	var calls int
	counting := func() *Registry[row] {
		r := NewRegistry[row]()
		r.MustRegister(Field[row]{Name: "name", Kind: KindString,
			Extract: func(x row) (any, bool) { calls++; return x.name, true }})
		return r
	}
	base := testRows()
	added := []row{{name: "foxtrot"}, {name: "golf"}}
	baseEng := NewEngine(counting(), base)
	if _, err := baseEng.Scan(Query{Fields: []string{"name"}}); err != nil {
		t.Fatalf("warm scan: %v", err)
	}
	calls = 0
	appended, err := NewEngineAppend(counting(), baseEng, append(base, added...))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	res, err := appended.Scan(Query{Fields: []string{"name"}})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(res.Rows) != len(base)+len(added) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(base)+len(added))
	}
	if calls != len(added) {
		t.Fatalf("extractor ran %d times after the append, want %d (added rows only)", calls, len(added))
	}
}

// TestAppendCarriesEqualityIndexes: == and in on a field without a
// dictionary read its sorted index, so the indexes a base built to answer
// them carry across an append, merged rather than rebuilt, and the new
// engine answers exactly as a cold build does.
func TestAppendCarriesEqualityIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	base, added := randomRows(rng, 300), randomRows(rng, 120)
	all := append(append([]row{}, base...), added...)
	queries := []Query{
		{Fields: []string{"name", "flagged"}, Filters: []Filter{{Field: "flagged", Op: OpEq, Value: true}}},
		{Fields: []string{"name", "size"}, Filters: []Filter{{Field: "size", Op: OpIn, Value: []any{3.0, 7.0, 11.0, 7.0}}}},
	}
	baseEng := NewEngine(testIndexedRegistry(), base)
	for _, q := range queries {
		if _, err := baseEng.Scan(q); err != nil {
			t.Fatalf("base scan %+v: %v", q, err)
		}
	}
	appended, err := NewEngineAppend(testIndexedRegistry(), baseEng, all)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	for _, name := range []string{"flagged", "size"} {
		if appended.sortedIdx[appended.ordinals[name]].ix.Load() == nil {
			t.Fatalf("sorted index on %s was not carried across the append", name)
		}
	}
	cold := NewEngine(testIndexedRegistry(), all)
	requireSameLayout(t, appended, cold, false)
	for i := 0; i < 60; i++ {
		queries = append(queries, randomQuery(rng))
	}
	for _, q := range queries {
		got, err1 := appended.Scan(q)
		want, err2 := cold.Scan(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %+v: appended err %v, cold err %v", q, err1, err2)
		}
		requireSameResult(t, q, got, want)
	}
}

// TestAppendRegistryMismatch: a registry whose shape diverges from the
// base's must be rejected, not silently mis-sealed.
func TestAppendRegistryMismatch(t *testing.T) {
	base := NewEngine(testRegistry(), testRows())

	renamed := NewRegistry[row]()
	renamed.MustRegister(Field[row]{Name: "nom", Kind: KindString,
		Extract: func(x row) (any, bool) { return x.name, true }})
	if _, err := NewEngineAppend(renamed, base, testRows()); err == nil {
		t.Fatal("append accepted a registry with a different field count")
	}

	shadow := NewRegistry[row]()
	for _, info := range testRegistry().Fields() {
		g, _ := testRegistry().Lookup(info.Name)
		if info.Name == "name" {
			g.Kind = KindInt
			g.Extract = func(x row) (any, bool) { return int64(len(x.name)), true }
		}
		shadow.MustRegister(g)
	}
	if _, err := NewEngineAppend(shadow, base, testRows()); err == nil {
		t.Fatal("append accepted a registry with a re-kinded field")
	}
}

// TestAppendWhileBaseServes runs the append concurrently with scans on the
// base engine (the live-swap situation: the old epoch keeps serving while
// the new epoch seals its columns). Run under -race; results on both engines
// must stay correct throughout.
func TestAppendWhileBaseServes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomRows(rng, 300)
	added := randomRows(rng, 60)
	baseEng := NewEngine(testDictRegistry(), base)
	all := append(append([]row{}, base...), added...)
	cold := NewEngine(testDictRegistry(), all)

	queries := make([]Query, 8)
	for i := range queries {
		queries[i] = randomQuery(rng)
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := baseEng.Scan(q)
		if err != nil {
			t.Fatalf("base scan: %v", err)
		}
		want[i] = r
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(w+i)%len(queries)]
				res, err := baseEng.Scan(q)
				if err != nil {
					t.Errorf("base scan under append: %v", err)
					return
				}
				requireSameResult(t, q, res, want[(w+i)%len(queries)])
			}
		}(w)
	}
	for round := 0; round < 5; round++ {
		appended, err := NewEngineAppend(testDictRegistry(), baseEng, all)
		if err != nil {
			t.Fatalf("append round %d: %v", round, err)
		}
		q := queries[round%len(queries)]
		got, err1 := appended.Scan(q)
		ref, err2 := cold.Scan(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("round %d: appended err %v, cold err %v", round, err1, err2)
		}
		requireSameResult(t, q, got, ref)
	}
	close(stop)
	wg.Wait()
}

// TestAppendForkCopiesClaimedColumns builds two appends of different deltas
// from one warmed base whose planes have spare capacity. Only the first may
// write into that capacity; the second finds every column claimed and copies
// it. Both must equal their cold builds, and the first and the base must
// still equal theirs after the second is built, while scans on the base and
// the first append run beside that build. Run under -race.
func TestAppendForkCopiesClaimedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// The base is itself an append, so its planes have room past its rows.
	_, base, _ := chainAppends(t, [][]row{
		layoutRows(rng, 300, testMarkets, nil, false, false),
		layoutRows(rng, 40, testMarkets, nil, false, false),
	}, false)
	n := base.Len()
	itemsA := append(base.items, layoutRows(rng, 50, testMarkets, nil, false, false)...)
	itemsB := append(base.items[:n:n], layoutRows(rng, 70, testMarkets, nil, true, true)...)
	cold := func(items []row) *Engine[row] {
		return NewEngine(testLayoutRegistry(), append([]row{}, items...))
	}
	coldBase, coldA, coldB := cold(base.items), cold(itemsA), cold(itemsB)

	a, err := NewEngineAppend(testLayoutRegistry(), base, itemsA)
	if err != nil {
		t.Fatalf("first append: %v", err)
	}
	requireSameLayout(t, a, coldA, true)

	queries := make([]Query, 6)
	for i := range queries {
		queries[i] = randomQuery(rng)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w, pair := range [][2]*Engine[row]{{base, coldBase}, {a, coldA}} {
		wg.Add(1)
		go func(w int, got, want *Engine[row]) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				res, err1 := got.Scan(q)
				ref, err2 := want.Scan(q)
				if err1 != nil || err2 != nil {
					t.Errorf("scan beside the fork: %v / %v", err1, err2)
					return
				}
				requireSameResult(t, q, res, ref)
			}
		}(w, pair[0], pair[1])
	}
	b, err := NewEngineAppend(testLayoutRegistry(), base, itemsB)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	requireSameLayout(t, b, coldB, true)
	requireSameLayout(t, a, coldA, true)
	requireSameLayout(t, base, coldBase, true)

	// Observe the routes: the first append grew the base's planes in place,
	// the fork copied them.
	ord := base.ordinals["size"]
	bc, ac, fc := base.cols[ord].col.Load(), a.cols[ord].col.Load(), b.cols[ord].col.Load()
	if &ac.ints[0] != &bc.ints[0] {
		t.Fatal("the first append copied the base's planes instead of growing them in place")
	}
	if &fc.ints[0] == &bc.ints[0] {
		t.Fatal("the fork wrote into planes the first append claimed")
	}
}

// TestRetiredEngineFreedByOneGC: once nothing references an engine that
// has served parallel scans — a retired epoch — the next GC must free it.
// Every append leaves one such engine behind, so an engine outliving its
// epoch by extra GC cycles (as it did while sync's pool registry could
// reach it) inflates the live heap by whole corpora.
func TestRetiredEngineFreedByOneGC(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEngine(testIndexedRegistry(), randomRows(rng, 2*parallelThreshold))
	// The parallel oracle match puts its chunk buffers in the engine's pool.
	if _, err := e.ScanOracle(Query{Filters: []Filter{{Field: "flagged", Op: OpEq, Value: true}}}); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(e, func(*Engine[row]) { close(freed) })
	e = nil
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("a GC ran with the engine unreachable, but did not free it")
	}
}

// testLayoutRegistry is testDictRegistry plus tag, a nullable
// dictionary-hinted string (the market, null wherever the rating is), so
// all-null rows and fully-null columns reach the dictionary path too.
func testLayoutRegistry() *Registry[row] {
	r := testPlainLayoutRegistry()
	if err := r.MarkDictionary("name", "market", "tag"); err != nil {
		panic(err)
	}
	return r
}

// testPlainLayoutRegistry is testLayoutRegistry without dictionary hints:
// every string column keeps the plain layout, as on a registry that hints
// none (the library rows') and on a hinted column past dictCardLimit.
func testPlainLayoutRegistry() *Registry[row] {
	r := testIndexedRegistry()
	r.MustRegister(Field[row]{Name: "tag", Category: "meta", Kind: KindString, Nullable: true,
		Extract: func(x row) (any, bool) { return x.market, x.hasRating }})
	return r
}

// floatBits spells a float column as bit patterns: reflect.DeepEqual never
// equates NaN with itself.
func floatBits(fs []float64) []uint64 {
	if fs == nil {
		return nil
	}
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

// requireSameLayout asserts that the columns and sorted indexes got carries
// are identical to the ones want (a cold build over the same rows) builds:
// nulls, values, dictionary, codes, zones and NaN flag of every column, ok
// flag and permutation of every sorted index. With all set, every column
// and sorted index must have been carried; otherwise only the carried ones
// are compared.
func requireSameLayout(t *testing.T, got, want *Engine[row], all bool) {
	t.Helper()
	for ord, name := range want.reg.order {
		gc := got.cols[ord].col.Load()
		if gc == nil {
			if all {
				t.Fatalf("column %s was not carried forward", name)
			}
			continue
		}
		wc := want.columnFor(ord)
		for _, part := range []struct {
			name      string
			got, want any
		}{
			{"kind", gc.kind, wc.kind},
			{"nulls", gc.nulls, wc.nulls},
			{"nullCount", gc.nullCount, wc.nullCount},
			{"hasNaN", gc.hasNaN, wc.hasNaN},
			{"ints", gc.ints, wc.ints},
			{"floats", floatBits(gc.floats), floatBits(wc.floats)},
			{"strs", gc.strs, wc.strs},
			{"bools", gc.bools, wc.bools},
			{"times", [3]any{gc.timeSec, gc.timeNsec, gc.timeOff}, [3]any{wc.timeSec, wc.timeNsec, wc.timeOff}},
			{"dict", gc.dict, wc.dict},
			{"codes", gc.codes, wc.codes},
			{"zones", gc.zones, wc.zones},
		} {
			if !reflect.DeepEqual(part.got, part.want) {
				t.Fatalf("column %s: %s diverges from the cold build:\nappended %v\ncold     %v",
					name, part.name, part.got, part.want)
			}
		}
		// Whole-struct backstop for any field the list above misses.
		g, w := *gc, *wc
		g.floats, w.floats = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("column %s diverges from the cold build", name)
		}

		gs := got.sortedIdx[ord].ix.Load()
		if gs == nil {
			if all {
				t.Fatalf("sorted index on %s was not carried forward", name)
			}
			continue
		}
		if gs.col != gc {
			t.Fatalf("sorted index on %s does not index the engine's own column", name)
		}
		ws := want.sortedFor(ord)
		if gs.ok != ws.ok || !reflect.DeepEqual(gs.perm, ws.perm) {
			t.Fatalf("sorted index on %s diverges from the cold build:\nappended ok=%v %v\ncold     ok=%v %v",
				name, gs.ok, gs.perm, ws.ok, ws.perm)
		}
	}
}

// chainAppends builds a base engine over parts[0], warms every column and
// sorted index, then seals each later part onto the previous epoch, checking
// every epoch's layout against a cold build over the same prefix. The items
// grow in one slice, as ingest grows them, and every epoch after the first
// writes into its predecessor's spare capacity; so once the chain is done,
// every earlier epoch is checked again against its cold build. With plain
// set, the registry is testPlainLayoutRegistry. It returns the base, the
// final epoch and the cold build over all parts.
func chainAppends(t *testing.T, parts [][]row, plain bool) (base, last, cold *Engine[row]) {
	t.Helper()
	newReg := testLayoutRegistry
	if plain {
		newReg = testPlainLayoutRegistry
	}
	all := append([]row{}, parts[0]...)
	base = NewEngine(newReg(), all)
	for ord := range base.sortedIdx {
		base.sortedFor(ord) // builds the column too
	}
	epochs := []*Engine[row]{base}
	colds := []*Engine[row]{NewEngine(newReg(), all)}
	last, cold = base, base
	for i, part := range parts[1:] {
		all = append(all, part...)
		next, err := NewEngineAppend(newReg(), last, all)
		if err != nil {
			t.Fatalf("append %d: %v", i+1, err)
		}
		cold = NewEngine(newReg(), all)
		requireSameLayout(t, next, cold, true)
		epochs, colds = append(epochs, next), append(colds, cold)
		last = next
	}
	for i := range epochs {
		requireSameLayout(t, epochs[i], colds[i], true)
	}
	return base, last, cold
}

// layoutRows draws n rows for the layout suite. Markets come from the given
// subset; names either repeat pool entries (when pool is non-empty) or are
// fresh and near-unique; nulls blanks every nullable field; nan puts NaN
// into about a quarter of the ratings.
func layoutRows(rng *rand.Rand, n int, markets, pool []string, nulls, nan bool) []row {
	rows := randomRows(rng, n)
	for i := range rows {
		r := &rows[i]
		r.market = markets[rng.Intn(len(markets))]
		if len(pool) > 0 {
			r.name = pool[rng.Intn(len(pool))]
		} else {
			r.name = fmt.Sprintf("n%06d", rng.Intn(1_000_000))
		}
		if nulls {
			r.hasSize, r.hasRating = false, false
		}
		if nan && rng.Intn(4) == 0 {
			r.rating, r.hasRating = math.NaN(), true
		}
	}
	return rows
}

// TestAppendChainLayoutMatchesColdBuild chains appends onto a base whose
// columns and sorted indexes are all built and asserts every epoch carries
// them forward with exactly the cold build's layout. Named cases pin the
// carry paths one by one — and check that the path under test really ran —
// and random chains of 3–8 appends mix them. segmentSize is 64 under
// TestMain, so deltas both cross and end on segment boundaries.
func TestAppendChainLayoutMatchesColdBuild(t *testing.T) {
	late := []string{"Tencent Myapp", "Xiaomi Market"}
	encoded := func(c *column) bool { return c.codes != nil }
	cases := []struct {
		name  string
		plain bool
		parts func(rng *rand.Rand) [][]row
		check func(t *testing.T, base, last *Engine[row])
	}{
		{
			// Each delta brings a market sorting before every old one: the
			// old codes shift through the remap on every epoch.
			name: "late_dictionary_values",
			parts: func(rng *rand.Rand) [][]row {
				return [][]row{
					layoutRows(rng, 90, late, nil, false, false),
					layoutRows(rng, 50, []string{"Huawei Market"}, nil, false, false),
					layoutRows(rng, 40, []string{"Google Play", "Xiaomi Market"}, nil, false, false),
					layoutRows(rng, 70, []string{"Baidu Market"}, nil, false, false),
				}
			},
			check: func(t *testing.T, base, last *Engine[row]) {
				ord := base.ordinals["market"]
				b, l := base.columnFor(ord), last.cols[ord].col.Load()
				if len(b.dict) != 2 || len(l.dict) != 5 {
					t.Fatalf("market dictionary grew %d -> %d values, want 2 -> 5", len(b.dict), len(l.dict))
				}
				if b.codes[0] == l.codes[0] {
					t.Fatalf("row 0's market code never moved (%d): the remap path did not run", b.codes[0])
				}
			},
		},
		{
			// 200 unique names encode (under 256); at 800 rows the 800
			// distinct names exceed n/2 and the column goes plain.
			name: "name_past_cardinality_limit",
			parts: func(rng *rand.Rand) [][]row {
				parts := make([][]row, 4)
				for i := range parts {
					parts[i] = randomRows(rng, 200)
					for j := range parts[i] {
						parts[i][j].name = fmt.Sprintf("u%d-%d", i, j)
					}
				}
				return parts
			},
			check: func(t *testing.T, base, last *Engine[row]) {
				ord := base.ordinals["name"]
				if !encoded(base.columnFor(ord)) || encoded(last.cols[ord].col.Load()) {
					t.Fatal("name should start dictionary-encoded and end plain")
				}
			},
		},
		{
			// 300 unique names stay plain (over 256 and over n/2); deltas
			// that only repeat them lift the limit to n/2 = 375 at 750 rows.
			name: "plain_becomes_dictionary",
			parts: func(rng *rand.Rand) [][]row {
				base := layoutRows(rng, 300, testMarkets, nil, false, false)
				names := make([]string, len(base))
				for i := range base {
					base[i].name = fmt.Sprintf("p%03d", i)
					names[i] = base[i].name
				}
				return [][]row{
					base,
					layoutRows(rng, 150, testMarkets, names, false, false),
					layoutRows(rng, 150, testMarkets, names, false, false),
					layoutRows(rng, 150, testMarkets, names, false, false),
				}
			},
			check: func(t *testing.T, base, last *Engine[row]) {
				ord := base.ordinals["name"]
				if encoded(base.columnFor(ord)) || !encoded(last.cols[ord].col.Load()) {
					t.Fatal("name should start plain and end dictionary-encoded")
				}
			},
		},
		{
			// The second delta brings the rating column's first NaN: every
			// zone loses its witnesses and the sorted index stops being ok.
			name: "nan_arrives_in_rating",
			parts: func(rng *rand.Rand) [][]row {
				return [][]row{
					layoutRows(rng, 130, testMarkets, nil, false, false),
					layoutRows(rng, 60, testMarkets, nil, false, false),
					layoutRows(rng, 20, testMarkets, nil, false, true),
					layoutRows(rng, 70, testMarkets, nil, false, false),
				}
			},
			check: func(t *testing.T, base, last *Engine[row]) {
				ord := base.ordinals["rating"]
				if base.columnFor(ord).hasNaN || !last.cols[ord].col.Load().hasNaN {
					t.Fatal("rating should gain its first NaN through a delta")
				}
				if last.sortedIdx[ord].ix.Load().ok {
					t.Fatal("rating's sorted index stayed ok after a NaN arrived")
				}
			},
		},
		{
			// An empty base, then all-null deltas: tag stays a fully-null
			// dictionary column (no dictionary, row-counted codes) until a
			// non-null delta arrives.
			name: "empty_base_and_all_null_deltas",
			parts: func(rng *rand.Rand) [][]row {
				return [][]row{
					nil,
					layoutRows(rng, 70, testMarkets, nil, true, false),
					layoutRows(rng, 58, testMarkets, nil, true, false),
					layoutRows(rng, 40, late, nil, false, false),
					layoutRows(rng, 30, testMarkets, nil, true, false),
				}
			},
			check: func(t *testing.T, base, last *Engine[row]) {
				if base.Len() != 0 {
					t.Fatalf("base has %d rows, want 0", base.Len())
				}
				if tag := last.cols[last.ordinals["tag"]].col.Load(); len(tag.dict) != len(late) {
					t.Fatalf("tag dictionary %q, want the %d markets of the one non-null delta", tag.dict, len(late))
				}
			},
		},
		{
			// Every old length is a multiple of the segment size, so every
			// base zone is sealed and reused as-is; one delta is empty.
			name: "segment_multiples",
			parts: func(rng *rand.Rand) [][]row {
				return [][]row{
					layoutRows(rng, 128, late, nil, false, false),
					layoutRows(rng, 64, testMarkets, nil, false, false),
					nil,
					layoutRows(rng, 192, testMarkets, nil, false, true),
					layoutRows(rng, 64, testMarkets, nil, false, false),
				}
			},
			check: func(t *testing.T, base, last *Engine[row]) {
				if n := last.Len(); n != 448 {
					t.Fatalf("final epoch has %d rows, want 448", n)
				}
			},
		},
		{
			name:  "plain",
			plain: true,
			parts: func(rng *rand.Rand) [][]row {
				return [][]row{
					layoutRows(rng, 100, late, nil, false, false),
					layoutRows(rng, 28, testMarkets, nil, true, false),
					layoutRows(rng, 77, testMarkets, nil, false, true),
					layoutRows(rng, 64, testMarkets, nil, false, false),
				}
			},
			check: func(t *testing.T, base, last *Engine[row]) {
				for ord := range last.cols {
					if c := last.cols[ord].col.Load(); c.codes != nil {
						t.Fatalf("plain-layout epoch carries a dictionary on %s", last.reg.order[ord])
					}
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base, last, _ := chainAppends(t, tc.parts(rand.New(rand.NewSource(1))), tc.plain)
			tc.check(t, base, last)
		})
	}

	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("random_%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			var names []string
			parts := make([][]row, 4+rng.Intn(6)) // a base and 3–8 appends
			total := 0
			for i := range parts {
				n := rng.Intn(130)
				switch rng.Intn(6) {
				case 0:
					n = 0
				case 1: // end on a segment boundary
					n = (total/segmentSize+1+rng.Intn(2))*segmentSize - total
				}
				markets := testMarkets[rng.Intn(len(testMarkets)):]
				var pool []string
				if rng.Intn(3) == 0 {
					pool = names
				}
				parts[i] = layoutRows(rng, n, markets, pool, rng.Intn(6) == 0, rng.Intn(10) == 0)
				for _, r := range parts[i] {
					names = append(names, r.name)
				}
				total += n
			}
			chainAppends(t, parts, seed%5 == 0)
		})
	}
}

// TestAppendWhileBaseBuildsSortedIndexes seals epochs while the base serves
// concurrent range scans that build its columns and sorted indexes lazily,
// so NewEngineAppend reads the sorted-index slots while another goroutine's
// sync.Once may be filling them. Run under -race; every index the append
// did carry must match the cold build, and scans on both engines stay
// correct.
func TestAppendWhileBaseBuildsSortedIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := layoutRows(rng, 400, testMarkets, nil, false, false)
	added := layoutRows(rng, 90, testMarkets, nil, false, false)
	all := append(append([]row{}, base...), added...)
	ranges := []Query{
		{Fields: []string{"name"}, Filters: []Filter{{Field: "size", Op: OpGe, Value: float64(12)}, {Field: "size", Op: OpLt, Value: float64(20)}}},
		{Fields: []string{"size"}, Filters: []Filter{{Field: "rating", Op: OpGt, Value: 2.5}}},
		{Fields: []string{"market"}, Filters: []Filter{{Field: "date", Op: OpLe, Value: "2018-05-09"}}},
		{Fields: []string{"rating"}, Filters: []Filter{{Field: "name", Op: OpLt, Value: "n3"}}},
	}
	cold := NewEngine(testLayoutRegistry(), all)
	oracle := NewEngine(testLayoutRegistry(), base)
	want := make([]*Result, len(ranges))
	for i, q := range ranges {
		r, err := oracle.ScanOracle(q)
		if err != nil {
			t.Fatalf("oracle scan: %v", err)
		}
		want[i] = r
	}

	for round := 0; round < 8; round++ {
		baseEng := NewEngine(testLayoutRegistry(), base)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < len(ranges); i++ {
					qi := (w + i) % len(ranges)
					res, err := baseEng.Scan(ranges[qi])
					if err != nil {
						t.Errorf("base scan under append: %v", err)
						return
					}
					if !reflect.DeepEqual(res.Rows, want[qi].Rows) {
						t.Errorf("base scan %d diverged while appending", qi)
						return
					}
				}
			}(w)
		}
		for i := 0; i < 3; i++ {
			appended, err := NewEngineAppend(testLayoutRegistry(), baseEng, all)
			if err != nil {
				t.Fatalf("round %d: append: %v", round, err)
			}
			requireSameLayout(t, appended, cold, false)
			for _, q := range ranges {
				got, err1 := appended.Scan(q)
				ref, err2 := cold.Scan(q)
				if err1 != nil || err2 != nil {
					t.Fatalf("round %d: appended err %v, cold err %v", round, err1, err2)
				}
				requireSameResult(t, q, got, ref)
			}
		}
		wg.Wait()
	}
}

// fuzzRows decodes one row per 4 input bytes, every field drawn from a small
// alphabet so values collide (dictionary and sort ties) and nulls and NaN
// appear.
func fuzzRows(data []byte) []row {
	rows := make([]row, 0, len(data)/4)
	for ; len(data) >= 4; data = data[4:] {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		r := row{
			name:      fmt.Sprintf("app-%d", b0),
			market:    testMarkets[int(b1)%len(testMarkets)],
			size:      int64(b3 % 40),
			hasSize:   b1&8 != 0,
			rating:    float64(b2%50) / 10,
			hasRating: b2 >= 0x20,
			flagged:   b1&16 != 0,
			date:      day(1 + int(b3)%28),
		}
		if b2 == 0xff {
			r.rating = math.NaN()
		}
		rows = append(rows, r)
	}
	return rows
}

// FuzzEngineAppend cuts fuzz-derived rows at 1–4 points, seals the pieces
// onto a fully warmed base one epoch at a time, and requires the final
// epoch to match a cold build over all rows: layout (columns and sorted
// indexes), a few scans and a few aggregates. Ratings may be NaN, so they
// are filtered on but never output (reflect.DeepEqual would refuse NaN
// cells even when both sides agree). The first byte picks the
// number of cuts and the registry, with or without dictionary hints; the
// next bytes are the cut points; the rest are rows.
func FuzzEngineAppend(f *testing.F) {
	f.Add([]byte{0x01, 3, 9, 1, 2, 40, 7, 1, 3, 80, 9, 5, 4, 255, 11, 200, 12, 60, 13})
	f.Add([]byte{0x07, 0, 2, 5, 9, 10, 1, 0, 1, 11, 2, 0, 2, 12, 3, 30, 3, 13, 4, 255, 4, 14, 0, 100, 5})
	f.Add([]byte{0x02, 200, 1, 7, 77, 0, 0, 66, 9, 1, 1, 99, 10, 2, 255, 100, 11, 3, 0, 101, 12})
	queries := []Query{
		{Fields: []string{"name", "size"}, Filters: []Filter{{Field: "rating", Op: OpGe, Value: 1.5}}, Sort: []SortKey{{Field: "size", Desc: true}}, Limit: 7},
		{Fields: []string{"market", "date"}, Filters: []Filter{{Field: "market", Op: OpIn, Value: []any{"Baidu Market", "Xiaomi Market"}}}},
		{Fields: []string{"name", "market", "size", "flagged", "date", "tag"}, Filters: []Filter{{Field: "size", Op: OpGt, Value: float64(9)}, {Field: "size", Op: OpLe, Value: float64(30)}, {Field: "name", Op: OpGe, Value: "app-2"}}},
		{Fields: []string{"tag"}, Filters: []Filter{{Field: "date", Op: OpLt, Value: "2018-05-15"}}, Sort: []SortKey{{Field: "tag"}}},
	}
	aggs := []Aggregate{
		{GroupBy: []string{"market"}, Aggregates: []AggSpec{{Op: AggCount}, {Op: AggMean, Field: "size"}, {Op: AggMax, Field: "name"}}},
		{GroupBy: []string{"name"}, Aggregates: []AggSpec{{Op: AggSum, Field: "size"}}, Sort: []SortKey{{Field: "sum(size)", Desc: true}}, Limit: 5},
		{GroupBy: []string{"tag", "flagged"}, Aggregates: []AggSpec{{Op: AggDistinct, Field: "market"}}, Filters: []Filter{{Field: "rating", Op: OpLt, Value: 3.0}}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nCuts, plain := 1+int(data[0]%4), data[0]&4 != 0
		if len(data) < 1+nCuts {
			return
		}
		rows := fuzzRows(data[1+nCuts:])
		cuts := make([]int, 0, nCuts+2)
		for _, b := range data[1 : 1+nCuts] {
			cuts = append(cuts, int(b)%(len(rows)+1))
		}
		slices.Sort(cuts)
		parts := [][]row{rows[:cuts[0]]}
		for i, c := range cuts {
			end := len(rows)
			if i+1 < len(cuts) {
				end = cuts[i+1]
			}
			parts = append(parts, rows[c:end])
		}
		_, last, cold := chainAppends(t, parts, plain)
		for _, q := range queries {
			got, err1 := last.Scan(q)
			want, err2 := cold.Scan(q)
			if err1 != nil || err2 != nil {
				t.Fatalf("scan %+v: appended err %v, cold err %v", q, err1, err2)
			}
			requireSameResult(t, q, got, want)
		}
		for _, a := range aggs {
			got, err1 := last.Aggregate(a)
			want, err2 := cold.Aggregate(a)
			if err1 != nil || err2 != nil {
				t.Fatalf("aggregate %+v: appended err %v, cold err %v", a, err1, err2)
			}
			requireSameAggregate(t, a, got, want)
		}
	})
}
