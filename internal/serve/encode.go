package serve

import (
	"errors"
	"net/http"
	"strings"

	"templar/internal/fragment"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/nlidb"
	"templar/internal/templar"
	"templar/pkg/api"
)

// This file is the boundary between the public wire contract (pkg/api)
// and the engine types: decoding api requests into keyword/engine values
// and encoding engine results back into api responses. The serving layer
// never leaks an engine type onto the wire and never parses JSON outside
// of it.

// decodeKeywords converts a wire KeywordsInput to mapper keywords,
// reporting violations as structured validation errors.
func decodeKeywords(in api.KeywordsInput) ([]keyword.Keyword, *api.Error) {
	switch {
	case in.Spec != "" && len(in.Keywords) > 0:
		return nil, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation,
			"serve: set either keywords or spec, not both")
	case in.Spec != "":
		kws, err := keyword.ParseSpec(in.Spec)
		if err != nil {
			return nil, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, err.Error())
		}
		return kws, nil
	case len(in.Keywords) == 0:
		return nil, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, "serve: no keywords")
	}
	out := make([]keyword.Keyword, len(in.Keywords))
	for i, kj := range in.Keywords {
		if strings.TrimSpace(kj.Text) == "" {
			return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeValidation,
				"serve: keyword %d has empty text", i)
		}
		kw := keyword.Keyword{Text: kj.Text}
		switch strings.ToLower(kj.Context) {
		case "select":
			kw.Meta.Context = fragment.Select
		case "where":
			kw.Meta.Context = fragment.Where
		case "from":
			kw.Meta.Context = fragment.From
		default:
			return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeValidation,
				"serve: keyword %d has unknown context %q", i, kj.Context)
		}
		kw.Meta.Op = kj.Op
		if kj.Agg != "" {
			kw.Meta.Aggs = []string{strings.ToUpper(kj.Agg)}
		}
		kw.Meta.GroupBy = kj.GroupBy
		if err := kw.Validate(); err != nil {
			return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeValidation,
				"serve: keyword %d: %v", i, err)
		}
		out[i] = kw
	}
	return out, nil
}

// decodeCallOptions translates wire-level engine knobs into a
// templar.CallOptions, validating the obscurity assertion's spelling
// (the engine validates its lineage).
func decodeCallOptions(co api.CallOptions, topConfigs, topPaths int) (*templar.CallOptions, *api.Error) {
	out := &templar.CallOptions{
		MaxCandidates:     co.MaxCandidates,
		MaxConfigurations: co.MaxConfigurations,
		TopConfigs:        topConfigs,
		TopPaths:          topPaths,
	}
	switch co.Obscurity {
	case "":
	case api.ObscurityFull:
		ob := fragment.Full
		out.Obscurity = &ob
	case api.ObscurityNoConst:
		ob := fragment.NoConst
		out.Obscurity = &ob
	case api.ObscurityNoConstOp:
		ob := fragment.NoConstOp
		out.Obscurity = &ob
	default:
		return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeValidation,
			"serve: unknown obscurity %q (want %q, %q or %q)",
			co.Obscurity, api.ObscurityFull, api.ObscurityNoConst, api.ObscurityNoConstOp)
	}
	return out, nil
}

// fromConfiguration renders one engine configuration on the wire.
func fromConfiguration(cfg keyword.Configuration) api.Configuration {
	out := api.Configuration{
		Mappings: make([]api.Mapping, len(cfg.Mappings)),
		SimScore: cfg.SimScore,
		QFGScore: cfg.QFGScore,
		Score:    cfg.Score,
	}
	for i, mp := range cfg.Mappings {
		mj := api.Mapping{
			Keyword:  mp.Keyword,
			Kind:     mp.Kind.String(),
			Relation: mp.Rel,
			GroupBy:  mp.GroupBy,
			Fragment: mp.Fragment(fragment.Full).String(),
			Sim:      mp.Sim,
		}
		if mp.Kind != keyword.KindRelation {
			mj.Attribute = mp.Attr
		}
		switch mp.Kind {
		case keyword.KindAttr:
			mj.Agg = mp.Agg
		case keyword.KindPred:
			mj.Op = mp.Op
			mj.Value = mp.Value.String()
		}
		out.Mappings[i] = mj
	}
	return out
}

func fromConfigurations(cfgs []keyword.Configuration) []api.Configuration {
	out := make([]api.Configuration, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = fromConfiguration(cfg)
	}
	return out
}

func fromPath(p joinpath.Path) api.Path {
	out := api.Path{
		Relations:   p.Relations,
		Edges:       make([]api.Edge, len(p.Edges)),
		TotalWeight: p.TotalWeight,
		Score:       p.Score,
		Goodness:    p.Goodness,
	}
	for i, e := range p.Edges {
		out.Edges[i] = api.Edge{From: e.FromInst, To: e.ToInst, Join: e.String(), Weight: e.Weight}
	}
	return out
}

func fromTranslation(tr *nlidb.Translation) api.TranslateResult {
	cfg := fromConfiguration(tr.Config)
	path := fromPath(tr.Path)
	return api.TranslateResult{
		SQL:      tr.SQL,
		Rendered: tr.Rendered,
		Score:    tr.Score,
		Tie:      tr.Tie,
		Config:   &cfg,
		Path:     &path,
	}
}

// engineError classifies an engine failure into the structured error
// model: obscurity assertions are validation failures, everything else a
// semantically-valid request the engine could not answer.
func engineError(err error) *api.Error {
	var mismatch *keyword.ObscurityMismatchError
	if errors.As(err, &mismatch) {
		return api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, err.Error())
	}
	return api.NewError(http.StatusUnprocessableEntity, api.CodeUnprocessable, err.Error())
}
