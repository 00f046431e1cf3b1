// Package socialrec is the fixture mirror of the repository root package:
// epochkey and noiseorder only fire inside the root package, so their
// fixtures re-declare the minimal shapes (vectorCache, cacheKey, snapState,
// Recommender, Accountant) under the same import path.
package socialrec

import "socialrec/internal/budget"

type cachedVector struct{}

type snapState struct{ epoch uint64 }

type cacheKey struct {
	epoch  uint64
	target int
}

type cacheEntry struct{ key cacheKey }

type vectorCache struct{ entries map[cacheKey]*cachedVector }

func (c *vectorCache) get(epoch uint64, target int) (*cachedVector, bool) {
	v, ok := c.entries[cacheKey{epoch: epoch, target: target}]
	return v, ok
}

func (c *vectorCache) put(epoch uint64, target int, v *cachedVector) {
	c.entries[cacheKey{epoch: epoch, target: target}] = v
}

func (c *vectorCache) contains(epoch uint64, target int) bool {
	_, ok := c.entries[cacheKey{epoch: epoch, target: target}]
	return ok
}

type Recommendation struct{}

type Recommender struct{ eps float64 }

func (r *Recommender) Epsilon() float64 { return r.eps }

func (r *Recommender) Recommend(target int) (Recommendation, error) {
	return Recommendation{}, nil
}

func (r *Recommender) RecommendTopK(target, k int) ([]Recommendation, error) {
	return nil, nil
}

type reservation struct{ res *budget.Reservation }

type Accountant struct {
	rec *Recommender
	mgr *budget.Manager
}

func (a *Accountant) charge(principal string, target, k int, eps float64) (reservation, error) {
	res, err := a.mgr.Reserve(principal, eps)
	if err != nil {
		return reservation{}, err
	}
	return reservation{res: res}, nil
}
