"""Hodges indifference prices for a defaultable claim.

Prices a zero-recovery bond: buy price (1/gamma) ln(J(0,0)/J(0,xi)) and
selling price as the negated buy price of the negated claim, from one pass
with unbounded strategies.  That pass equals the pass on C = [-k, k] for
every k >= k-bar, the largest |pi| it reaches.  With zero risk premium the buy
price has the certainty-equivalent closed form -(1/gamma) ln E[exp(-gamma xi)].

Then prices a put in a complete market (beta = 0, one (mu, sigma) before and
after default, the same payoff in both default states), where buy = sell =
E_Q[xi(S_T)]: a sum of Phi and phi terms, one per log-linear segment.
"""
import json
import math

from defaultbsde import (Claim, MarketModel, Quadrature,
                         RegimeCoefficients, SpaceGrid, TimeGrid,
                         indifference_price, wealth_scaling)

model = MarketModel(grid=TimeGrid(1.0, 100),
                    coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.2,
                                                       beta=0.0, lam=0.1),
                    gamma=1.0)
claim = Claim.default_indicator(1.0, 0.0)
space = SpaceGrid.for_model(model, 80)
quad = Quadrature.gauss_hermite(7)

rep = indifference_price(model, claim, space, quad)
closed_buy = -math.log(math.exp(-1.1) + 1 - math.exp(-0.1))
closed_sell = math.log(math.exp(0.9) + 1 - math.exp(-0.1))
print(f"buy price  p  = {rep.buy_price:.6f}  (closed form {closed_buy:.6f})")
print(f"sell price p* = {rep.sell_price:.6f}  (closed form {closed_sell:.6f})")
diag = rep.diagnostics
print(f"k-bar = {diag['k_bar']:.3g} (zero risk premium: the strategy is 0 up to rounding)")
print(f"gamma k-bar sigma_max sqrt(dt) = {diag['monotonicity']:.3g} (monotonicity number)")

# initial wealth scales both legs and cancels in the price
v = wealth_scaling(2.0, -rep.J0_claim, rep.gamma)
print(f"\nvalue with initial wealth 2.0: {v:.6f} "
      "(price unchanged, the factor cancels in the ratio)")
print("\nwire format:")
print(json.dumps(rep.to_json_dict(), indent=2)[:400], "...")

# the complete market: log S_T ~ N(-sigma^2 T / 2, sigma^2 T) under Q (r = 0)
sigma = 0.25
model = MarketModel(grid=TimeGrid(1.0, 100),
                    coeffs=RegimeCoefficients.constant(mu=0.05, sigma=sigma,
                                                       beta=0.0, lam=0.0),
                    gamma=1.0)
s_nodes = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
put = tuple(max(1.0 - s, 0.0) for s in s_nodes)
rep = indifference_price(model, Claim(s_nodes, (put, put)),
                         SpaceGrid.for_model(model, 100), quad)


def cdf(d):
    return 0.5 * math.erfc(-d / math.sqrt(2.0))


def pdf(d):
    return math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)


xs, mean, sd = [math.log(s) for s in s_nodes], -0.5 * sigma ** 2, sigma
d = [(x - mean) / sd for x in xs]
reference = put[0] * cdf(d[0]) + put[-1] * (1.0 - cdf(d[-1]))
for k in range(len(xs) - 1):
    slope = (put[k + 1] - put[k]) / (xs[k + 1] - xs[k])
    reference += ((put[k] + slope * (mean - xs[k])) * (cdf(d[k + 1]) - cdf(d[k]))
                  + slope * sd * (pdf(d[k]) - pdf(d[k + 1])))
print(f"\nstrike-1 put, complete market, N = M = 100: E_Q[xi] = {reference:.7f}")
print(f"buy price  p  = {rep.buy_price:.7f}  (error {rep.buy_price - reference:+.2e})")
print(f"sell price p* = {rep.sell_price:.7f}  (error {rep.sell_price - reference:+.2e})")
