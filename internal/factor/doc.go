// Package factor implements discrete probability factors — multidimensional
// tables over sets of categorical variables — together with the product,
// marginalization, reduction and normalization operations that variable
// elimination is built from.
//
// These are the workhorses of the exact inference path (internal/infer's
// VE) that the paper's Section-5 applications use on discrete KERT-BNs;
// the Monte-Carlo paths also return their posteriors as single-variable
// factors so every caller sees one result type.
//
// A factor's variable list is kept sorted ascending by variable id, and the
// value table is laid out with the FIRST variable as the slowest-moving
// index (row-major over the sorted scope).
//
// The kernels walk tables instead of decoding them. Product, Reduce,
// SumProduct and FromTable visit entries in row-major index order:
// an odometer — a mixed-radix counter over the variables, last one fastest
// — carries one flat offset per operand table and steps it by precomputed
// jumps, so no entry pays a div/mod to turn its index into an assignment.
// Adjacent variables that every operand walks contiguously merge into one
// inner run, so a sorted table copy is a single copy.
//
// Row-major order is what keeps variable elimination bit-identical to the
// decode-based kernels these replaced (kept in factor_test.go as the
// reference): each output entry is formed by the same floating-point
// multiplications, and its sums add the same terms in the same order
// (increasing state of the summed variable, starting from 0). SumProduct
// fuses VE's eliminate step, the product of every factor mentioning a
// variable followed by summing it out, into one pass with that same order,
// so the product table is never built.
//
// There is no factor cache per model generation: converting a CPT is a
// strided copy that costs under a millisecond even for kertmon's
// 279,936-entry D-CPT, while a cache would have to be dropped every time
// decentralized relearning installs new CPDs.
package factor
