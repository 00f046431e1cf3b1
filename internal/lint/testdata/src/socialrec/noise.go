package socialrec

import "socialrec/internal/mechanism"

// noiseorder fixtures: inside Accountant methods every mechanism draw
// must be preceded by a budget reservation (charge / Manager.Reserve).

func (a *Accountant) GoodOrder(target int) (Recommendation, error) {
	return charge(a, target, func() (Recommendation, error) { return a.rec.Recommend(target) })
}

func (a *Accountant) DrawsBeforeCharge(target int) ([]Recommendation, error) {
	recs, _ := a.rec.RecommendTopK(target, 2) // want "samples noise via RecommendTopK before the budget reservation"
	return charge(a, target, func() ([]Recommendation, error) { return recs, nil })
}

func (a *Accountant) GoodDirectReserve(target int) ([]Recommendation, error) {
	if _, err := a.mgr.Reserve("p", 0.5); err != nil {
		return nil, err
	}
	return a.rec.RecommendTopK(target, 5)
}

func (a *Accountant) NeverReserves(target int) (Recommendation, error) {
	return a.rec.Recommend(target) // want "samples noise via Recommend without reserving budget"
}

func (a *Accountant) DrawsBeforeReserve(target int) (Recommendation, error) {
	pick := mechanism.Sample() // want "samples noise via Sample before the budget reservation"
	_ = pick
	if _, err := a.mgr.Reserve("p", 0.5); err != nil {
		return Recommendation{}, err
	}
	return a.rec.Recommend(target)
}

// Non-Accountant receivers carry no reservation obligation.
func (r *Recommender) helperWithoutCharge(target int) (Recommendation, error) {
	return r.Recommend(target)
}
