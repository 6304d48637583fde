/* Native body of bornsim.streams.trial_uniforms.
 *
 * Fills out[k * n + i] with draw k of trial start + i:
 *
 *     state(t)   = mix64(seed ^ mix64((t + 1) * GOLDEN))
 *     draw(t, k) = mix64(state(t) + (k + 1) * GOLDEN) >> 11, times 2**-53
 *
 * ``base`` is (start + 1) * GOLDEN mod 2**64, so trial start + i starts from
 * base + i * GOLDEN. Only uint64 arithmetic (which wraps mod 2**64, as
 * SplitMix64 needs), an int64 -> double conversion of a value below 2**53
 * (exact) and a multiply by a power of two (exact) touch the bits, so the
 * values are those of the numpy and scalar paths on any compiler that keeps
 * IEEE doubles: build without -ffast-math.
 *
 * Trials go in blocks of BLOCK: the block's trial states stay in L1 cache
 * while each draw row is written contiguously.
 */
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define BLOCK 4096

static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* One copy of the loop per x86-64 level, picked when the library loads:
 * AVX-512 has the 64-bit multiply and int64 -> double conversion as vector
 * instructions, which -O3 alone cannot assume. The clones are built with
 * GCC only; other compilers build the plain loop. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#endif
void trial_uniforms(double *out, uint64_t seed, uint64_t base, int64_t n, int64_t ndraws)
{
    uint64_t state[BLOCK];
    for (int64_t a = 0; a < n; a += BLOCK) {
        int64_t m = n - a < BLOCK ? n - a : BLOCK;
        uint64_t first = base + (uint64_t)a * GOLDEN;
        for (int64_t i = 0; i < m; i++)
            state[i] = mix64(seed ^ mix64(first + (uint64_t)i * GOLDEN));
        for (int64_t k = 0; k < ndraws; k++) {
            uint64_t step = (uint64_t)(k + 1) * GOLDEN;
            double *row = out + k * n + a;
            for (int64_t i = 0; i < m; i++)
                row[i] = (double)(int64_t)(mix64(state[i] + step) >> 11) * 0x1p-53;
        }
    }
}
