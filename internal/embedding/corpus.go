package embedding

import (
	"strings"

	"eta2/internal/stats"
)

// Domain is a topical lexicon used both to synthesize a training corpus for
// the skip-gram model and to generate crowdsourcing task descriptions. It
// stands in for the paper's Wikipedia dump + real task texts: what the
// pipeline needs is that words of one domain co-occur, so their embeddings
// cluster.
type Domain struct {
	// Name is a short lowercase identifier ("noise", "traffic", …).
	Name string
	// QueryTerms are phrases usable as the Query term of a task description
	// ("noise level", "decibel reading"). Multi-word phrases are
	// space-separated.
	QueryTerms []string
	// TargetTerms are phrases usable as the Target term ("municipal
	// building", "main library").
	TargetTerms []string
	// Context are additional topical words mixed into corpus sentences.
	Context []string
}

// BuiltinDomains are the ten topical domains shipped with the library. They
// cover the scenarios the paper's introduction motivates (noise mapping,
// traffic conditions, product prices) plus seven more mobile-sensing topics.
var BuiltinDomains = []Domain{
	{
		Name:        "noise",
		QueryTerms:  []string{"noise level", "decibel reading", "sound intensity", "loudness", "ambient noise", "noise pollution"},
		TargetTerms: []string{"municipal building", "train station", "construction site", "downtown plaza", "school playground", "hospital entrance", "concert hall", "residential street"},
		Context:     []string{"loud", "quiet", "decibels", "microphone", "acoustic", "hum", "siren", "drilling", "measure", "sensor", "disturbance", "volume", "echo"},
	},
	{
		Name:        "traffic",
		QueryTerms:  []string{"traffic speed", "congestion level", "travel time", "vehicle count", "driving hours", "accident delay"},
		TargetTerms: []string{"interstate highway", "main bridge", "city tunnel", "ring road", "downtown intersection", "airport expressway", "toll plaza", "harbor crossing"},
		Context:     []string{"cars", "lanes", "rush", "commute", "jam", "gridlock", "detour", "merge", "stoplight", "drivers", "roadwork", "miles", "bumper"},
	},
	{
		Name:        "parking",
		QueryTerms:  []string{"parking lots", "open spaces", "parking fee", "occupancy rate", "garage capacity", "parking availability"},
		TargetTerms: []string{"campus garage", "stadium lot", "shopping mall", "city center", "office tower", "visitor deck", "street meters", "arena garage"},
		Context:     []string{"spots", "valet", "permit", "meter", "ticket", "reserved", "hourly", "garage", "level", "full", "vacant", "attendant", "entrance"},
	},
	{
		Name:        "price",
		QueryTerms:  []string{"retail price", "grocery price", "average salary", "gas price", "discount rate", "ticket price"},
		TargetTerms: []string{"local supermarket", "farmers market", "gas station", "electronics store", "department store", "corner bakery", "wholesale club", "software engineers"},
		Context:     []string{"dollars", "cents", "sale", "coupon", "checkout", "cashier", "brand", "wholesale", "inflation", "bargain", "receipt", "aisle", "cost"},
	},
	{
		Name:        "weather",
		QueryTerms:  []string{"temperature reading", "rainfall amount", "wind speed", "humidity level", "snow depth", "uv index"},
		TargetTerms: []string{"river valley", "mountain pass", "coastal pier", "city park", "northern suburb", "ski resort", "botanical garden", "observation deck"},
		Context:     []string{"forecast", "cloudy", "sunny", "storm", "degrees", "barometer", "precipitation", "gusts", "chill", "fog", "thermometer", "drizzle", "overcast"},
	},
	{
		Name:        "wifi",
		QueryTerms:  []string{"wifi bandwidth", "signal strength", "download speed", "network latency", "hotspot count", "packet loss"},
		TargetTerms: []string{"public library", "coffee shop", "student union", "conference center", "airport lounge", "coworking space", "hotel lobby", "food court"},
		Context:     []string{"router", "megabits", "wireless", "antenna", "coverage", "ping", "bars", "connection", "modem", "throughput", "dropout", "roaming", "spectrum"},
	},
	{
		Name:        "crowd",
		QueryTerms:  []string{"queue length", "waiting time", "attendance count", "crowd density", "students attending", "visitor number"},
		TargetTerms: []string{"weekly seminar", "city museum", "football stadium", "amusement park", "job fair", "graduation ceremony", "polling station", "night market"},
		Context:     []string{"people", "line", "crowded", "entrance", "tickets", "capacity", "ushers", "headcount", "gathering", "audience", "seats", "registration", "turnout"},
	},
	{
		Name:        "food",
		QueryTerms:  []string{"meal rating", "lunch price", "table wait", "menu items", "calorie count", "portion size"},
		TargetTerms: []string{"campus cafeteria", "sushi restaurant", "taco truck", "pizza place", "vegan bistro", "ramen bar", "steak house", "dining hall"},
		Context:     []string{"taste", "chef", "dishes", "spicy", "dessert", "service", "reservation", "menu", "delicious", "appetizer", "kitchen", "flavor", "tip"},
	},
	{
		Name:        "transit",
		QueryTerms:  []string{"bus frequency", "subway delay", "fare amount", "seat availability", "route duration", "transfer time"},
		TargetTerms: []string{"central terminal", "red line", "express route", "night bus", "suburban rail", "ferry dock", "tram loop", "metro platform"},
		Context:     []string{"schedule", "passengers", "conductor", "stop", "boarding", "timetable", "railcar", "turnstile", "commuters", "announcement", "platform", "depot", "ride"},
	},
	{
		Name:        "air",
		QueryTerms:  []string{"air quality", "pollen count", "pm25 concentration", "ozone level", "carbon monoxide", "smog index"},
		TargetTerms: []string{"industrial district", "elementary school", "riverside trail", "chemical plant", "bus depot", "urban canyon", "rooftop monitor", "suburban park"},
		Context:     []string{"particulate", "smoke", "haze", "emissions", "filter", "respiratory", "monitor", "exhaust", "breathing", "allergy", "pollutants", "chimney", "visibility"},
	},
}

// commonGlue are high-frequency function words mixed into every sentence so
// the subsampling and negative-sampling paths of the trainer are exercised
// realistically.
var commonGlue = []string{
	"the", "a", "of", "at", "in", "near", "today", "is", "was", "reported",
	"measured", "observed", "around", "during", "morning", "afternoon",
	"evening", "weekend", "current", "average", "latest", "local",
}

// CorpusConfig controls synthetic corpus generation.
type CorpusConfig struct {
	// SentencesPerDomain is the number of sentences generated for each
	// domain (default 400).
	SentencesPerDomain int
	// WordsPerSentence is the approximate sentence length (default 12).
	WordsPerSentence int
	// Seed makes generation deterministic.
	Seed int64
}

func (c *CorpusConfig) applyDefaults() {
	if c.SentencesPerDomain <= 0 {
		c.SentencesPerDomain = 400
	}
	if c.WordsPerSentence <= 0 {
		c.WordsPerSentence = 12
	}
}

// GenerateCorpus synthesizes a tokenized training corpus in which words of
// the same domain systematically co-occur. Each sentence draws one domain,
// samples its query/target/context words, and interleaves common glue words.
func GenerateCorpus(domains []Domain, cfg CorpusConfig) [][]string {
	cfg.applyDefaults()
	rng := stats.NewRNG(cfg.Seed)
	var corpus [][]string
	for _, dom := range domains {
		pool := domainWordPool(dom)
		for range cfg.SentencesPerDomain {
			sent := make([]string, 0, cfg.WordsPerSentence)
			for len(sent) < cfg.WordsPerSentence {
				if rng.Float64() < 0.35 {
					sent = append(sent, commonGlue[rng.Intn(len(commonGlue))])
				} else {
					sent = append(sent, pool[rng.Intn(len(pool))])
				}
			}
			corpus = append(corpus, sent)
		}
	}
	// Shuffle sentences so domains are interleaved, as in a real corpus.
	rng.Shuffle(len(corpus), func(i, j int) {
		corpus[i], corpus[j] = corpus[j], corpus[i]
	})
	return corpus
}

// domainWordPool flattens a domain's phrases and context words into a pool
// of single tokens.
func domainWordPool(d Domain) []string {
	var pool []string
	for _, t := range d.QueryTerms {
		pool = append(pool, strings.Fields(t)...)
	}
	for _, t := range d.TargetTerms {
		pool = append(pool, strings.Fields(t)...)
	}
	pool = append(pool, d.Context...)
	return pool
}
