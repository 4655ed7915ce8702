package core

import (
	"anchor/internal/embedding"
	"anchor/internal/registry"
)

// MeasureConfig carries everything a measure factory may need. Zero
// values select the paper's defaults, so callers only set what they care
// about.
type MeasureConfig struct {
	// Anchors and AnchorsTilde are the eigenspace-instability anchor
	// embeddings (the highest-memory pair of the sweep). Measures that do
	// not use anchors ignore them.
	Anchors, AnchorsTilde *embedding.Embedding
	// Alpha is the EIS eigenvalue exponent (0 selects the paper's 3).
	Alpha float64
	// K is the k-NN neighborhood size (0 selects the paper's 5).
	K int
	// Queries is the k-NN query-word count (0 selects the paper's 1000).
	Queries int
	// KNNSeed seeds the k-NN query sample (0 selects the fixed seed 7
	// used throughout the experiments).
	KNNSeed int64
	// Workers bounds the goroutines used (<= 0 selects all CPUs). Every
	// registered measure must return identical values for every count.
	Workers int
}

func (c MeasureConfig) alpha() float64 {
	if c.Alpha == 0 {
		return 3
	}
	return c.Alpha
}

func (c MeasureConfig) k() int {
	if c.K == 0 {
		return 5
	}
	return c.K
}

func (c MeasureConfig) queries() int {
	if c.Queries == 0 {
		return 1000
	}
	return c.Queries
}

func (c MeasureConfig) knnSeed() int64 {
	if c.KNNSeed == 0 {
		return 7
	}
	return c.KNNSeed
}

// MeasureFactory builds a configured measure instance.
type MeasureFactory func(cfg MeasureConfig) Measure

// measures is the pluggable measure registry. Registration order is the
// paper's reporting order (Table 1 rows), so it doubles as the canonical
// measure ordering.
var measures = registry.New[MeasureFactory]("measure")

// RegisterMeasure makes a measure factory resolvable by name. The built
// measure's Name() must equal the registered name. Panics on duplicates;
// call from init.
func RegisterMeasure(name string, f MeasureFactory) { measures.Register(name, f) }

// MeasureNames returns the registered measure names in registration
// (= reporting) order.
func MeasureNames() []string { return measures.Names() }

// CheckMeasure returns nil when the measure is registered, else a
// *registry.UnknownError naming the known measures.
func CheckMeasure(name string) error { return measures.Check(name) }

// NewMeasure builds the named measure; unknown names return a
// *registry.UnknownError.
func NewMeasure(name string, cfg MeasureConfig) (Measure, error) {
	f, err := measures.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(cfg), nil
}

// NewMeasures builds every registered measure in reporting order with one
// shared configuration.
func NewMeasures(cfg MeasureConfig) []Measure {
	names := MeasureNames()
	out := make([]Measure, len(names))
	for i, name := range names {
		f, _ := measures.Get(name)
		out[i] = f(cfg)
	}
	return out
}

func init() {
	RegisterMeasure("eigenspace-instability", func(cfg MeasureConfig) Measure {
		return &EigenspaceInstability{
			E: cfg.Anchors, ETilde: cfg.AnchorsTilde,
			Alpha: cfg.alpha(), Workers: cfg.Workers,
		}
	})
	RegisterMeasure("1-knn", func(cfg MeasureConfig) Measure {
		return &KNN{
			K: cfg.k(), Queries: cfg.queries(), Seed: cfg.knnSeed(), Workers: cfg.Workers,
		}
	})
	RegisterMeasure("semantic-displacement", func(cfg MeasureConfig) Measure {
		return SemanticDisplacement{Workers: cfg.Workers}
	})
	RegisterMeasure("pip-loss", func(cfg MeasureConfig) Measure {
		return PIPLoss{Workers: cfg.Workers}
	})
	RegisterMeasure("1-eigenspace-overlap", func(cfg MeasureConfig) Measure {
		return EigenspaceOverlap{Workers: cfg.Workers}
	})
}
