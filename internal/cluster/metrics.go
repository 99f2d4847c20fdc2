package cluster

import "eta2/internal/obs"

// Clustering metrics. The domain-count gauge reflects the engine that
// most recently finished an AddItems round; a serving process owns one
// engine, so this is its live domain count.
var (
	mDomains = obs.Default().Gauge("eta2_cluster_domains",
		"Expertise domains after the most recent clustering round.")
	mItems = obs.Default().Counter("eta2_cluster_items_total",
		"Task items fed into the dynamic clusterer.")
	mMerges = obs.Default().Counter("eta2_cluster_merges_total",
		"Cluster merges applied below the gamma*d* threshold.")
	mDomainMerges = obs.Default().Counter("eta2_cluster_domain_merges_total",
		"Established-domain merge events (expertise accumulators folded together).")
	mDistEvals = obs.Default().Counter("eta2_cluster_distance_evals_total",
		"Pair distance evaluations made by AddItems rounds (batch pairs and d* candidates; every pair with history for an engine without point statistics).")
	mAddDur = obs.Default().Histogram("eta2_cluster_add_duration_seconds",
		"Wall time of one AddItems round (new linkage rows + dendrogram).",
		obs.DefBuckets)
)
