package analysis

import (
	"marketscope/internal/manifest"
	"marketscope/internal/market"
	"marketscope/internal/permissions"
	"marketscope/internal/query"
	"marketscope/internal/stats"
)

// Field categories exposed by the dataset's query source.
const (
	FieldCategoryMetadata   = "metadata"   // market-reported listing metadata
	FieldCategoryAPK        = "apk"        // parsed-APK artifacts
	FieldCategoryEnrichment = "enrichment" // detector outputs (after Enrich)
)

// QuerySource exposes the dataset to the query engine: every listing becomes
// one scannable row with the field registry built by appFieldRegistry. The
// engine is built once and cached; it is safe for concurrent scans, so one
// dataset can back the HTTP /api/scan endpoint, the scan command and the
// fixed analyses simultaneously.
//
// Enrichment-category fields are null until Enrich has run; apk-category
// fields are null on listings whose APK was missing or failed to parse.
// Enrich's worker pool mutates the listings while it runs, so it must return
// before any concurrent scanning starts (any Enrich call returning is enough:
// concurrent callers all block until the one pipeline run completes) —
// enrich first, then attach/serve.
//
// The engine caches extracted values in typed columns, so a source handed
// out before Enrich would go stale when enrichment later mutates the
// listings; QuerySource therefore rebuilds the engine on first use after
// enrichment and callers should always re-fetch it rather than hold one
// across an Enrich call.
func (d *Dataset) QuerySource() query.Source {
	d.queryMu.Lock()
	defer d.queryMu.Unlock()
	enriched := d.enriched.Load()
	if d.querySrc == nil || d.queryEnriched != enriched {
		d.querySrc = query.NewEngine(appFieldRegistry(d), d.Apps)
		d.queryEnriched = enriched
	}
	return d.querySrc
}

// metaField registers a never-null metadata field.
func metaField(r *query.Registry[*App], name string, kind query.Kind, doc string, extract func(*App) (any, bool)) {
	r.MustRegister(query.Field[*App]{Name: name, Category: FieldCategoryMetadata, Kind: kind, Doc: doc, Extract: extract})
}

// apkField registers a field derived from the parsed APK; it is null when
// the listing's APK was not parsed.
func apkField(r *query.Registry[*App], name string, kind query.Kind, doc string, extract func(*App) (any, bool)) {
	r.MustRegister(query.Field[*App]{Name: name, Category: FieldCategoryAPK, Kind: kind, Doc: doc, Nullable: true,
		Extract: func(a *App) (any, bool) {
			if !a.HasAPK() {
				return nil, false
			}
			return extract(a)
		}})
}

// enrichField registers a detector-output field; it is null before Enrich
// and on unparsed listings (the detectors only run over parsed APKs).
func enrichField(r *query.Registry[*App], name string, kind query.Kind, doc string, extract func(*App) (any, bool)) {
	r.MustRegister(query.Field[*App]{Name: name, Category: FieldCategoryEnrichment, Kind: kind, Doc: doc, Nullable: true, Extract: extract})
}

// appFieldRegistry builds the ~40-field registry over the dataset's
// listings: the paper's metadata catalog, the parsed-APK artifacts and the
// enrichment results, each as a flat, filterable, sortable column.
func appFieldRegistry(d *Dataset) *query.Registry[*App] {
	profiles := make(map[string]market.Profile, len(d.Markets))
	for _, p := range d.Markets {
		profiles[p.Name] = p
	}

	r := query.NewRegistry[*App]()

	// --- metadata: what the market's app page reports -------------------
	metaField(r, "market", query.KindString, "hosting market name",
		func(a *App) (any, bool) { return a.Meta.Market, true })
	metaField(r, "package", query.KindString, "Android package name",
		func(a *App) (any, bool) { return a.Meta.Package, true })
	metaField(r, "app_name", query.KindString, "display name on the market page",
		func(a *App) (any, bool) { return a.Meta.AppName, true })
	metaField(r, "market_category", query.KindString, "market-native category string",
		func(a *App) (any, bool) { return a.Meta.Category, true })
	metaField(r, "category", query.KindString, "consolidated 22-category taxonomy (Figure 1)",
		func(a *App) (any, bool) { return string(a.Category()), true })
	metaField(r, "developer_name", query.KindString, "market-reported developer name",
		func(a *App) (any, bool) { return a.Meta.DeveloperName, true })
	metaField(r, "developer_id", query.KindString, "signing fingerprint when parsed, else name:<developer_name>",
		func(a *App) (any, bool) { return a.DeveloperID(), true })
	metaField(r, "version_code", query.KindInt, "market-reported version code",
		func(a *App) (any, bool) { return a.Meta.VersionCode, true })
	metaField(r, "version_name", query.KindString, "market-reported version name",
		func(a *App) (any, bool) { return a.Meta.VersionName, true })
	r.MustRegister(query.Field[*App]{Name: "downloads", Category: FieldCategoryMetadata, Kind: query.KindInt,
		Doc: "market-reported install count; null where the market reports none", Nullable: true,
		Extract: func(a *App) (any, bool) { return a.Meta.Downloads, a.Meta.ReportsDownloads() }})
	r.MustRegister(query.Field[*App]{Name: "download_bin", Category: FieldCategoryMetadata, Kind: query.KindString,
		Doc: "Google-Play install range of the reported count (Figure 2); null where unreported", Nullable: true,
		Extract: func(a *App) (any, bool) {
			if !a.Meta.ReportsDownloads() {
				return nil, false
			}
			return stats.BinDownloads(a.Meta.Downloads).String(), true
		}})
	r.MustRegister(query.Field[*App]{Name: "download_floor", Category: FieldCategoryMetadata, Kind: query.KindInt,
		Doc: "inclusive lower bound of the install range, the paper's conservative download estimate (Table 1); null where unreported", Nullable: true,
		Extract: func(a *App) (any, bool) {
			if !a.Meta.ReportsDownloads() {
				return nil, false
			}
			return stats.BinDownloads(a.Meta.Downloads).LowerBound(), true
		}})
	metaField(r, "rating", query.KindFloat, "average user rating in [0,5]; 0 means unrated",
		func(a *App) (any, bool) { return a.Meta.Rating, true })
	r.MustRegister(query.Field[*App]{Name: "release_date", Category: FieldCategoryMetadata, Kind: query.KindTime,
		Doc: "first-release date reported by the market; null when unset", Nullable: true,
		Extract: func(a *App) (any, bool) { return a.Meta.ReleaseDate, true }})
	r.MustRegister(query.Field[*App]{Name: "update_date", Category: FieldCategoryMetadata, Kind: query.KindTime,
		Doc: "last-update date reported by the market; null when unset", Nullable: true,
		Extract: func(a *App) (any, bool) { return a.Meta.UpdateDate, true }})
	metaField(r, "listed_apk_size", query.KindInt, "APK size in bytes as listed on the market page",
		func(a *App) (any, bool) { return a.Meta.APKSize, true })
	metaField(r, "has_ads", query.KindBool, "market labels the app as ad-supported",
		func(a *App) (any, bool) { return a.Meta.HasAds, true })
	metaField(r, "has_iap", query.KindBool, "market labels the app as having in-app purchases",
		func(a *App) (any, bool) { return a.Meta.HasIAP, true })
	metaField(r, "market_type", query.KindString, "market type (official, third-party, ...)",
		func(a *App) (any, bool) { return string(profiles[a.Meta.Market].Type), true })
	metaField(r, "market_chinese", query.KindBool, "hosted by one of the 16 Chinese markets",
		func(a *App) (any, bool) { return profiles[a.Meta.Market].IsChinese(), true })

	// --- apk: the parsed artifact --------------------------------------
	r.MustRegister(query.Field[*App]{Name: "apk_parsed", Category: FieldCategoryAPK, Kind: query.KindBool,
		Doc:     "the harvested APK parsed and verified",
		Extract: func(a *App) (any, bool) { return a.HasAPK(), true }})
	r.MustRegister(query.Field[*App]{Name: "parse_error", Category: FieldCategoryAPK, Kind: query.KindString,
		Doc: "why the APK could not be parsed; null on success", Nullable: true,
		Extract: func(a *App) (any, bool) {
			if a.ParseError == nil {
				return nil, false
			}
			return a.ParseError.Error(), true
		}})
	apkField(r, "apk_size", query.KindInt, "archive size in bytes",
		func(a *App) (any, bool) { return a.Parsed.Size, true })
	apkField(r, "apk_md5", query.KindString, "MD5 of the archive bytes",
		func(a *App) (any, bool) { return a.Parsed.MD5, true })
	apkField(r, "apk_sha256", query.KindString, "SHA-256 of the archive bytes",
		func(a *App) (any, bool) { return a.Parsed.SHA256, true })
	apkField(r, "min_sdk", query.KindInt, "manifest minSdkVersion (Figure 3)",
		func(a *App) (any, bool) { return a.Parsed.Manifest.MinSDK, true })
	apkField(r, "target_sdk", query.KindInt, "manifest targetSdkVersion",
		func(a *App) (any, bool) { return a.Parsed.Manifest.TargetSDK, true })
	apkField(r, "android_version", query.KindString, "Android release matching min_sdk",
		func(a *App) (any, bool) { return manifest.AndroidVersionForAPI(a.Parsed.Manifest.MinSDK), true })
	apkField(r, "debuggable", query.KindBool, "manifest debuggable flag",
		func(a *App) (any, bool) { return a.Parsed.Manifest.Debuggable, true })
	apkField(r, "permission_count", query.KindInt, "permissions requested in the manifest",
		func(a *App) (any, bool) { return len(a.Parsed.Manifest.Permissions), true })
	apkField(r, "component_count", query.KindInt, "declared manifest components",
		func(a *App) (any, bool) { return len(a.Parsed.Manifest.Components), true })
	apkField(r, "class_count", query.KindInt, "classes in the dex",
		func(a *App) (any, bool) { return a.Parsed.Dex.NumClasses(), true })
	apkField(r, "method_count", query.KindInt, "methods in the dex",
		func(a *App) (any, bool) { return a.Parsed.Dex.NumMethods(), true })
	apkField(r, "api_call_count", query.KindInt, "distinct framework APIs referenced by the code",
		func(a *App) (any, bool) { return len(a.Parsed.Dex.DistinctAPICalls()), true })
	apkField(r, "signing_developer", query.KindString, "hex fingerprint of the signing certificate",
		func(a *App) (any, bool) { return a.Parsed.Developer().String(), true })
	apkField(r, "channel_count", query.KindInt, "META-INF channel marker files (Section 5.3)",
		func(a *App) (any, bool) { return len(a.Parsed.Channel), true })

	// --- enrichment: detector outputs ----------------------------------
	enrichField(r, "library_count", query.KindInt, "third-party libraries detected (Figure 5)",
		func(a *App) (any, bool) {
			if !d.enriched.Load() || !a.HasAPK() {
				return nil, false
			}
			return len(a.Libraries), true
		})
	enrichField(r, "known_library_count", query.KindInt, "detections resolved to a catalog entry",
		func(a *App) (any, bool) {
			if !d.enriched.Load() || !a.HasAPK() {
				return nil, false
			}
			n := 0
			for _, det := range a.Libraries {
				if det.Known {
					n++
				}
			}
			return n, true
		})
	enrichField(r, "ad_library_count", query.KindInt, "advertising libraries detected",
		func(a *App) (any, bool) {
			if !d.enriched.Load() || !a.HasAPK() {
				return nil, false
			}
			n := 0
			for _, det := range a.Libraries {
				if det.IsAd() {
					n++
				}
			}
			return n, true
		})
	enrichField(r, "av_positives", query.KindInt, "AV-rank: engines flagging the sample (Table 4)",
		func(a *App) (any, bool) {
			if a.AVReport == nil {
				return nil, false
			}
			return a.AVReport.Positives, true
		})
	enrichField(r, "av_family", query.KindString, "AVClass plurality family; null when clean or unlabeled",
		func(a *App) (any, bool) {
			if a.AVReport == nil || a.AVReport.Family == "" {
				return nil, false
			}
			return a.AVReport.Family, true
		})
	enrichField(r, "flagged_malware", query.KindBool, "AV-rank >= 10, the paper's robust threshold",
		func(a *App) (any, bool) {
			if a.AVReport == nil {
				return nil, false
			}
			return a.AVReport.Flagged(10), true
		})
	enrichField(r, "permissions_used", query.KindInt, "mapped permissions reachable from code",
		func(a *App) (any, bool) {
			if a.PermUsage == nil {
				return nil, false
			}
			return len(a.PermUsage.Used), true
		})
	enrichField(r, "permissions_unused", query.KindInt, "permission gap: requested but never used (Figure 11)",
		func(a *App) (any, bool) {
			if a.PermUsage == nil {
				return nil, false
			}
			return a.PermUsage.OverPrivilegedCount(), true
		})
	enrichField(r, "over_privileged", query.KindBool, "requests at least one unused permission",
		func(a *App) (any, bool) {
			if a.PermUsage == nil {
				return nil, false
			}
			return a.PermUsage.IsOverPrivileged(), true
		})
	enrichField(r, "unused_dangerous_count", query.KindInt, "unused permissions in the dangerous group",
		func(a *App) (any, bool) {
			if a.PermUsage == nil {
				return nil, false
			}
			n := 0
			for _, p := range a.PermUsage.Unused {
				if permissions.IsDangerous(p) {
					n++
				}
			}
			return n, true
		})

	// Index hints: the planner may answer == / in / range filters on these
	// fields from secondary indexes instead of scanning every listing. The
	// set is the hot filter columns: low-cardinality strings and flags
	// (market, category, taxonomy, booleans) plus the numerics range
	// queries target (AV-rank, downloads, rating, SDK levels).
	if err := r.MarkIndexable(
		"market", "market_category", "category", "market_type", "market_chinese",
		"developer_id", "has_ads", "has_iap", "apk_parsed", "debuggable",
		"min_sdk", "target_sdk", "downloads", "rating", "version_code",
		"release_date", "update_date",
		"av_positives", "av_family", "flagged_malware", "over_privileged",
		"library_count", "permissions_unused",
	); err != nil {
		panic(err) // static field table: a bad name is a programming error
	}

	// Dictionary hints: low-cardinality strings whose values repeat across
	// most of the corpus. The engine re-encodes them as codes into a sorted
	// dictionary — group-by keys become int comparisons and, combined with
	// the index hints above, == / in filters become bitmap intersections.
	// The hint is free to be generous: a column whose cardinality turns out
	// too high (developer_id on a small corpus, say) silently keeps the
	// plain layout with identical results.
	if err := r.MarkDictionary(
		"market", "market_category", "category", "market_type",
		"developer_name", "developer_id", "version_name", "download_bin",
		"android_version", "av_family",
	); err != nil {
		panic(err)
	}

	return r
}

// CountMatching runs a count-only scan: the number of listings passing the
// filters, without materializing more than one row. It is the cheapest way
// for programmatic consumers to ask "how many listings look like X" through
// the same engine the /api/scan endpoint serves.
func (d *Dataset) CountMatching(filters ...query.Filter) (int, error) {
	res, err := d.QuerySource().Scan(query.Query{
		Fields:  []string{"package"},
		Filters: filters,
		Limit:   1,
	})
	if err != nil {
		return 0, err
	}
	return res.Meta.TotalMatched, nil
}
