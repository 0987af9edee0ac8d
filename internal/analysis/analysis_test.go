package analysis

import (
	"sync"
	"testing"

	"marketscope/internal/appmeta"
	"marketscope/internal/crawler"
	"marketscope/internal/market"
	"marketscope/internal/synth"
)

// fixture holds a generated corpus, its first- and second-crawl snapshots and
// the enriched dataset, shared by all tests in this package.
type fixture struct {
	eco     *synth.Ecosystem
	first   *crawler.Snapshot
	second  *crawler.Snapshot
	dataset *Dataset
}

var (
	fixtureOnce sync.Once
	fixtureVal  *fixture
	fixtureErr  error
)

func testFixture(t *testing.T) *fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := synth.SmallConfig()
		cfg.NumApps = 320
		cfg.NumDevelopers = 120
		eco, err := synth.Generate(cfg)
		if err != nil {
			fixtureErr = err
			return
		}
		stores, err := eco.Populate()
		if err != nil {
			fixtureErr = err
			return
		}
		first, err := crawler.SnapshotFromStores(stores, true, cfg.CrawlDate)
		if err != nil {
			fixtureErr = err
			return
		}
		eco.ApplyModeration(stores)
		second, err := crawler.SnapshotFromStores(stores, false, cfg.CrawlDate.AddDate(0, 8, 0))
		if err != nil {
			fixtureErr = err
			return
		}
		dataset, err := BuildDataset(first)
		if err != nil {
			fixtureErr = err
			return
		}
		dataset.Enrich(DefaultEnrichOptions())
		fixtureVal = &fixture{eco: eco, first: first, second: second, dataset: dataset}
	})
	if fixtureErr != nil {
		t.Fatalf("fixture: %v", fixtureErr)
	}
	return fixtureVal
}

func chineseAverage(rows []MalwareRow, d *Dataset, pick func(MalwareRow) float64) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if marketIsChinese(d, r.Market) && r.Parsed > 0 {
			sum += pick(r)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestBuildDatasetShape(t *testing.T) {
	f := testFixture(t)
	d := f.dataset
	if d.NumListings() != f.first.NumRecords() {
		t.Errorf("dataset listings = %d, snapshot records = %d", d.NumListings(), f.first.NumRecords())
	}
	if len(d.Markets) == 0 || d.Markets[0].Name != market.GooglePlay {
		t.Errorf("markets not in canonical order: %v", d.MarketNames())
	}
	parsed := 0
	for _, app := range d.Apps {
		if app.HasAPK() {
			parsed++
			if app.Parsed.Manifest.Package != app.Meta.Package {
				t.Fatalf("parsed package mismatch for %s", app.Meta.Package)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("no APKs parsed")
	}
	if !d.Enriched() {
		t.Fatal("fixture dataset should be enriched")
	}
	if d.LibraryDetector() == nil {
		t.Error("library detector missing after enrichment")
	}
}

func TestBuildDatasetNilAndEmpty(t *testing.T) {
	if _, err := BuildDataset(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	empty, err := BuildDataset(crawler.NewSnapshot(synth.SmallConfig().CrawlDate))
	if err != nil {
		t.Fatalf("empty snapshot rejected: %v", err)
	}
	if empty.NumListings() != 0 {
		t.Error("empty snapshot produced listings")
	}
}

func TestMustEnrichPanics(t *testing.T) {
	d, err := BuildDataset(crawler.NewSnapshot(synth.SmallConfig().CrawlDate))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("detector-backed analysis did not panic on unenriched dataset")
		}
	}()
	LibraryUsage(d)
}

func TestMarketOverviewTable1(t *testing.T) {
	f := testFixture(t)
	rows := MarketOverview(f.dataset)
	if len(rows) != len(f.dataset.Markets) {
		t.Fatalf("rows = %d, markets = %d", len(rows), len(f.dataset.Markets))
	}
	byName := map[string]MarketOverviewRow{}
	totalApps := 0
	for _, r := range rows {
		byName[r.Profile.Name] = r
		totalApps += r.Apps
		if r.Apps > 0 && r.Developers == 0 {
			t.Errorf("%s: apps without developers", r.Profile.Name)
		}
		if r.UniqueDeveloperShare < 0 || r.UniqueDeveloperShare > 1 {
			t.Errorf("%s: unique developer share out of range", r.Profile.Name)
		}
	}
	if totalApps != f.dataset.NumListings() {
		t.Errorf("sum of per-market apps = %d, listings = %d", totalApps, f.dataset.NumListings())
	}
	gp := byName[market.GooglePlay]
	if gp.Apps == 0 || gp.AggregatedDownloads == 0 {
		t.Errorf("Google Play row empty: %+v", gp)
	}
	totals := Totals(f.dataset, rows)
	if totals.Apps != totalApps || totals.Developers == 0 {
		t.Errorf("totals inconsistent: %+v", totals)
	}
	if totals.ChineseDownloads == 0 {
		t.Error("Chinese aggregate downloads zero")
	}
}

func TestDownloadConcentration(t *testing.T) {
	f := testFixture(t)
	rows := DownloadConcentration(f.dataset)
	for _, r := range rows {
		if r.TopOnePct < 0 || r.TopOnePct > 1 || r.TopTenthPct > r.TopOnePct+1e-9 {
			t.Errorf("%s: implausible concentration %+v", r.Market, r)
		}
	}
}

func TestCategoriesFigure1(t *testing.T) {
	f := testFixture(t)
	dists := Categories(f.dataset)
	for _, dist := range dists {
		sum := 0.0
		for _, share := range dist.Shares {
			sum += share
		}
		apps := len(f.dataset.AppsIn(dist.Market))
		if apps > 0 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("%s: category shares sum to %g", dist.Market, sum)
		}
		if apps > 80 && dist.Shares[appmeta.CategoryGame] < 0.10 {
			t.Errorf("%s: game share %g implausibly low", dist.Market, dist.Shares[appmeta.CategoryGame])
		}
	}
}

func TestDownloadsFigure2(t *testing.T) {
	f := testFixture(t)
	rows := Downloads(f.dataset)
	for _, row := range rows {
		sum := 0.0
		for _, share := range row.Distribution {
			sum += share
		}
		if row.Reported > 0 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("%s: download shares sum to %g", row.Market, sum)
		}
		profile, _ := market.ProfileByName(row.Market)
		if !profile.ReportsDownloads && row.Reported != 0 {
			t.Errorf("%s reports no downloads but %d records had counts", row.Market, row.Reported)
		}
	}
}

func TestAPILevelsFigure3(t *testing.T) {
	f := testFixture(t)
	gp, cn := APILevels(f.dataset)
	if gp.Parsed == 0 || cn.Parsed == 0 {
		t.Fatalf("parsed counts: gp=%d cn=%d", gp.Parsed, cn.Parsed)
	}
	if gp.LowAPIShare >= cn.LowAPIShare {
		t.Errorf("Google Play low-API share (%.2f) should be below Chinese markets (%.2f)",
			gp.LowAPIShare, cn.LowAPIShare)
	}
	perMarket := APILevelsByMarket(f.dataset)
	if len(perMarket) != len(f.dataset.Markets) {
		t.Errorf("per-market API levels missing entries")
	}
}

func TestReleaseDatesFigure4(t *testing.T) {
	f := testFixture(t)
	gp, cn := ReleaseDates(f.dataset)
	if gp.Total == 0 || cn.Total == 0 {
		t.Fatal("empty release-date distributions")
	}
	if gp.RecentShare <= cn.RecentShare {
		t.Errorf("Google Play recent-update share (%.2f) should exceed Chinese markets (%.2f)",
			gp.RecentShare, cn.RecentShare)
	}
	if cn.Shares["before crawl"] < 0.99 {
		t.Errorf("all updates should predate the crawl, got %.2f", cn.Shares["before crawl"])
	}
}

func TestLibraryUsageFigure5(t *testing.T) {
	f := testFixture(t)
	rows := LibraryUsage(f.dataset)
	nonEmpty := 0
	for _, r := range rows {
		if r.Parsed == 0 {
			continue
		}
		nonEmpty++
		if r.ShareWithLibraries < 0.5 {
			t.Errorf("%s: only %.2f of apps embed libraries", r.Market, r.ShareWithLibraries)
		}
		if r.AvgLibraries <= 0 || r.AvgAdLibraries < 0 {
			t.Errorf("%s: implausible averages %+v", r.Market, r)
		}
		if r.ShareWithAds > r.ShareWithLibraries+1e-9 {
			t.Errorf("%s: ad share exceeds library share", r.Market)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no markets with parsed apps")
	}
}

func TestTopLibrariesTable2(t *testing.T) {
	f := testFixture(t)
	gp, cn := TopLibraries(f.dataset, 10)
	if len(gp) == 0 || len(cn) == 0 {
		t.Fatalf("empty library rankings: gp=%d cn=%d", len(gp), len(cn))
	}
	gpNames := map[string]bool{}
	for _, r := range gp {
		gpNames[r.Name] = true
	}
	if !gpNames["Google Mobile Services"] && !gpNames["Google AdMob"] {
		t.Errorf("Google Play top libraries miss Google SDKs: %+v", gp)
	}
	cnHasChinese := false
	for _, r := range cn {
		switch r.Name {
		case "Umeng", "Tencent WeChat SDK", "Baidu SDK (Map/Push)", "Alipay":
			cnHasChinese = true
		}
	}
	if !cnHasChinese {
		t.Errorf("Chinese top libraries miss Chinese SDKs: %+v", cn)
	}
	gpAds, cnAds := AdEcosystem(f.dataset)
	if gpAds.TopAdShare > 0 && cnAds.TopAdShare > 0 {
		if gpAds.TopAdShare <= cnAds.TopAdShare-0.25 {
			t.Errorf("Google Play ad market should be more concentrated: gp=%.2f cn=%.2f",
				gpAds.TopAdShare, cnAds.TopAdShare)
		}
	}
	if libs := ChineseSpecificLibraries(f.dataset); len(libs) == 0 {
		t.Error("no Chinese-specific libraries detected")
	}
}

func TestRatingsFigure6(t *testing.T) {
	f := testFixture(t)
	rows := Ratings(f.dataset)
	var gp RatingDistribution
	cnUnrated, cnN := 0.0, 0
	for _, r := range rows {
		if r.Total == 0 {
			continue
		}
		for i := 1; i < len(r.CDF); i++ {
			if r.CDF[i] < r.CDF[i-1]-1e-9 {
				t.Errorf("%s: rating CDF not monotone", r.Market)
			}
		}
		if r.Market == market.GooglePlay {
			gp = r
		} else if marketIsChinese(f.dataset, r.Market) {
			cnUnrated += r.UnratedShare
			cnN++
		}
	}
	if cnN == 0 || gp.Total == 0 {
		t.Fatal("missing rating distributions")
	}
	if gp.UnratedShare >= cnUnrated/float64(cnN) {
		t.Errorf("Google Play unrated share (%.2f) should be below Chinese average (%.2f)",
			gp.UnratedShare, cnUnrated/float64(cnN))
	}
}

func TestPublishingFigure7(t *testing.T) {
	f := testFixture(t)
	stats := Publishing(f.dataset)
	if stats.Developers == 0 {
		t.Fatal("no developers")
	}
	cdf := stats.MarketsPerDeveloperCDF
	if len(cdf) != market.NumMarkets() {
		t.Fatalf("CDF evaluated at %d points", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1]-1e-9 {
			t.Fatal("developer-coverage CDF not monotone")
		}
	}
	if cdf[len(cdf)-1] < 0.999 {
		t.Errorf("CDF should reach 1 at 17 markets, got %g", cdf[len(cdf)-1])
	}
	if stats.SingleMarketShare <= 0.2 {
		t.Errorf("single-market developer share %.2f implausibly low", stats.SingleMarketShare)
	}
	if stats.GPDevsNotInChineseShare <= 0.25 {
		t.Errorf("GP-only developer share %.2f too low vs paper's 57%%", stats.GPDevsNotInChineseShare)
	}
	if stats.ChineseDevsNotOnGPShare <= 0.25 {
		t.Errorf("Chinese-only developer share %.2f too low vs paper's ~48%%", stats.ChineseDevsNotOnGPShare)
	}
}

func TestStoreOverlapSection52(t *testing.T) {
	f := testFixture(t)
	rows := StoreOverlap(f.dataset)
	byName := map[string]StoreOverlapRow{}
	for _, r := range rows {
		byName[r.Market] = r
		if r.SingleStoreShare < 0 || r.SingleStoreShare > 1 {
			t.Errorf("%s: single-store share out of range", r.Market)
		}
	}
	gp := byName[market.GooglePlay]
	if gp.Apps > 0 && gp.SingleStoreShare < 0.3 {
		t.Errorf("Google Play single-store share %.2f implausibly low", gp.SingleStoreShare)
	}
}

func TestClustersFigure8(t *testing.T) {
	f := testFixture(t)
	c := Clusters(f.dataset)
	for name, series := range map[string][]float64{
		"versions": c.VersionsPerPackage, "names": c.NameClusterSize, "developers": c.DevelopersPerPackage,
	} {
		if len(series) == 0 {
			t.Fatalf("%s CDF empty", name)
		}
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1]-1e-9 {
				t.Errorf("%s CDF not monotone", name)
			}
		}
	}
	if c.MultiDeveloperShare <= 0 {
		t.Error("no multi-developer packages despite injected signature clones")
	}
	if c.SameNameShare <= 0 {
		t.Error("no same-name packages despite injected fakes")
	}
}

func TestOutdatedFigure9(t *testing.T) {
	f := testFixture(t)
	rows := Outdated(f.dataset)
	byName := map[string]OutdatedRow{}
	sumCN, nCN := 0.0, 0
	for _, r := range rows {
		byName[r.Market] = r
		if r.UpToDateShare < 0 || r.UpToDateShare > 1 {
			t.Errorf("%s: up-to-date share out of range", r.Market)
		}
		if marketIsChinese(f.dataset, r.Market) && r.MultiStoreApps > 0 {
			sumCN += r.UpToDateShare
			nCN++
		}
	}
	gp := byName[market.GooglePlay]
	if nCN > 0 && gp.MultiStoreApps > 0 && gp.UpToDateShare <= sumCN/float64(nCN) {
		t.Errorf("Google Play up-to-date share (%.2f) should exceed Chinese average (%.2f)",
			gp.UpToDateShare, sumCN/float64(nCN))
	}
}

func TestIdenticalAppsSection53(t *testing.T) {
	f := testFixture(t)
	stats := IdenticalApps(f.dataset)
	if stats.Triples == 0 {
		t.Fatal("no multi-market triples in this corpus")
	}
	if stats.HashMismatchTriples == 0 {
		t.Error("channel files should make multi-market archives differ")
	}
	if stats.HashMismatchTriples > stats.Triples {
		t.Error("mismatch count exceeds triple count")
	}
}

func TestMisbehaviorTable3AndFigure10(t *testing.T) {
	f := testFixture(t)
	res := Misbehavior(f.dataset, DefaultMisbehaviorOptions())
	if len(res.Rows) != len(f.dataset.Markets) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.AvgCodeShare <= 0 || res.AvgSigShare <= 0 || res.AvgFakeShare <= 0 {
		t.Errorf("average misbehaviour shares should be positive: %+v", res)
	}
	var gpRow MisbehaviorRow
	for _, r := range res.Rows {
		if r.Market == market.GooglePlay {
			gpRow = r
		}
		if r.FakeShare < 0 || r.FakeShare > 1 || r.CodeCloneShare > 1 {
			t.Errorf("%s: shares out of range: %+v", r.Market, r)
		}
	}
	if gpRow.Apps > 0 && gpRow.FakeShare > res.AvgFakeShare*1.5+0.001 {
		t.Errorf("Google Play fake share (%.4f) should not greatly exceed the average (%.4f)",
			gpRow.FakeShare, res.AvgFakeShare)
	}
	if len(res.Heatmap) == 0 {
		t.Error("clone-source heatmap empty")
	}
}

func TestOverPrivilegeFigure11(t *testing.T) {
	f := testFixture(t)
	gp, cn := OverPrivilege(f.dataset)
	if gp.Parsed == 0 || cn.Parsed == 0 {
		t.Fatal("no over-privilege data")
	}
	if gp.OverPrivilegedShare >= cn.OverPrivilegedShare {
		t.Errorf("Google Play over-privileged share (%.2f) should be below Chinese markets (%.2f)",
			gp.OverPrivilegedShare, cn.OverPrivilegedShare)
	}
	sum := 0.0
	for _, share := range cn.Distribution {
		sum += share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("over-privilege distribution sums to %g", sum)
	}
	if len(cn.TopUnused) == 0 {
		t.Error("no common unused dangerous permissions reported")
	}
	perMarket := OverPrivilegeByMarket(f.dataset)
	if len(perMarket) != len(f.dataset.Markets) {
		t.Error("per-market over-privilege missing entries")
	}
}

func TestMalwareTable4(t *testing.T) {
	f := testFixture(t)
	rows := MalwarePrevalence(f.dataset)
	var gp MalwareRow
	for _, r := range rows {
		if r.ShareAtLeast1 < r.ShareAtLeast10 || r.ShareAtLeast10 < r.ShareAtLeast20 {
			t.Errorf("%s: threshold monotonicity violated: %+v", r.Market, r)
		}
		if r.Market == market.GooglePlay {
			gp = r
		}
	}
	cnAvg10 := chineseAverage(rows, f.dataset, func(r MalwareRow) float64 { return r.ShareAtLeast10 })
	if gp.Parsed == 0 {
		t.Fatal("no Google Play scans")
	}
	if gp.ShareAtLeast10 >= cnAvg10 {
		t.Errorf("Google Play malware share (%.3f) should be below Chinese average (%.3f)",
			gp.ShareAtLeast10, cnAvg10)
	}
	avg := AverageChineseMalware(f.dataset, rows)
	if avg.ShareAtLeast10 <= 0 {
		t.Error("Chinese average malware share should be positive")
	}
}

func TestTopMalwareTable5(t *testing.T) {
	f := testFixture(t)
	entries := TopMalware(f.dataset, 10)
	if len(entries) == 0 {
		t.Fatal("no top malware entries")
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].AVRank > entries[i-1].AVRank {
			t.Error("top malware not sorted by AV-rank")
		}
	}
	if entries[0].AVRank < 10 {
		t.Errorf("top entry AV-rank = %d, implausibly low", entries[0].AVRank)
	}
	if len(entries[0].Markets) == 0 {
		t.Error("top entry lists no markets")
	}
}

func TestMalwareFamiliesFigure12(t *testing.T) {
	f := testFixture(t)
	_, cn := MalwareFamilies(f.dataset, 10, 15)
	if len(cn) == 0 {
		t.Fatal("no Chinese-market malware families")
	}
	total := 0.0
	for _, fs := range cn {
		total += fs.Share
		if fs.Count <= 0 {
			t.Errorf("family %q with non-positive count", fs.Family)
		}
	}
	if total > 1.001 {
		t.Errorf("family shares exceed 1: %g", total)
	}
	seen := map[string]bool{}
	for _, fs := range cn {
		seen[fs.Family] = true
	}
	anyKnown := false
	for _, fam := range []string{"kuguo", "airpush", "smsreg", "dowgin", "gappusin", "youmi", "revmob", "secapk"} {
		if seen[fam] {
			anyKnown = true
		}
	}
	if !anyKnown {
		t.Errorf("no known family among Chinese-market labels: %+v", cn)
	}
}

func TestRepackagedMalware(t *testing.T) {
	f := testFixture(t)
	mis := Misbehavior(f.dataset, DefaultMisbehaviorOptions())
	stats := RepackagedMalware(f.dataset, mis, 10)
	if stats.FlaggedPackages == 0 {
		t.Fatal("no flagged packages")
	}
	if stats.RepackagedShare < 0 || stats.RepackagedShare > 1 {
		t.Errorf("repackaged share out of range: %+v", stats)
	}
}

func TestPostAnalysisTable6(t *testing.T) {
	f := testFixture(t)
	rows := PostAnalysis(f.dataset, f.second, 10)
	var gp RemovalRow
	sumCN, nCN := 0.0, 0
	for _, r := range rows {
		if r.RemovedShare < 0 || r.RemovedShare > 1 {
			t.Errorf("%s: removal share out of range", r.Market)
		}
		if r.Market == market.GooglePlay {
			gp = r
		} else if marketIsChinese(f.dataset, r.Market) && r.FlaggedFirstCrawl > 0 {
			sumCN += r.RemovedShare
			nCN++
		}
	}
	if gp.FlaggedFirstCrawl == 0 || nCN == 0 {
		t.Fatalf("not enough flagged listings for removal comparison: %d flagged on Google Play, %d Chinese markets with any",
			gp.FlaggedFirstCrawl, nCN)
	}
	if gp.RemovedShare <= sumCN/float64(nCN) {
		t.Errorf("Google Play removal share (%.2f) should exceed Chinese average (%.2f)",
			gp.RemovedShare, sumCN/float64(nCN))
	}
	still := StillHosted(f.dataset, f.second, 10)
	if still.GPRemovedMalware > 0 && (still.Share < 0 || still.Share > 1) {
		t.Errorf("still-hosted share out of range: %+v", still)
	}
}

func TestRadarFigure13(t *testing.T) {
	f := testFixture(t)
	rows := Radar(f.dataset, nil)
	if len(rows) == 0 {
		t.Fatal("no radar rows")
	}
	for _, r := range rows {
		if len(r.Values) == 0 {
			t.Errorf("%s: empty metric vector", r.Market)
		}
		for metric, v := range r.Values {
			if v < 0 || v > 100.0001 {
				t.Errorf("%s: metric %s = %g out of [0,100]", r.Market, metric, v)
			}
		}
	}
}
