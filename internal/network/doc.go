// Package network simulates the vertical peer-to-peer processing chain of
// Figure 3: sensors at the bottom, appliances and a home media center above
// them, the apartment PC, and the provider's cloud server on top. Fragments
// produced by the fragment package are placed on the lowest capable node and
// executed bottom-up; the simulator accounts rows, bytes and time on every
// link — in particular the bytes d′ that leave the apartment, the quantity
// the paper's privacy argument is about.
//
// The paper's testbed (real sensors, a real apartment PC, a real cloud) is
// replaced by this simulator; capability levels, relative compute power and
// link bandwidths are modelled, so "who can run what" and "what ships where"
// — the two quantities the paper reasons about — are measured exactly.
//
// Placement consumes only the per-stage accounting, never the rows, so the
// streaming path (Open + drain) and the materialized path (Run) report
// byte-identical RunStats by construction — at any WithParallelism
// setting, since a parallel chain's per-stage sums equal the serial ones.
// RunFanIn is the same chain run with the base data spread over many
// sensors: only the placement walk's accounting of the bottom node differs.
package network
