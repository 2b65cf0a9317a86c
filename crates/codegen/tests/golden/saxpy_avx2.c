/* Generated by exo-codegen — do not edit.
 * kernel: saxpy
 * mode: machine intrinsics where mapped, scalar fallback otherwise
 */
#include <stdint.h>
#include <string.h>
#include <immintrin.h>

struct exo_win_1f32 { float *data; int64_t strides[1]; };

static inline int64_t exo_div_euclid(int64_t a, int64_t b) {
    if (b == 0) return 0;
    int64_t q = a / b;
    int64_t r = a % b;
    if (r < 0) q -= (b > 0) ? 1 : -1;
    return q;
}

static void mm256_set1_ps(struct exo_win_1f32 dst, float val) {
    /* machine intrinsic lowering (windows assumed unit-stride in the last dimension) */
    _mm256_storeu_ps(dst.data, _mm256_set1_ps(val));
}

static void mm256_loadu_ps(struct exo_win_1f32 dst, struct exo_win_1f32 src) {
    /* machine intrinsic lowering (windows assumed unit-stride in the last dimension) */
    _mm256_storeu_ps(dst.data, _mm256_loadu_ps(src.data));
}

static void mm256_fmadd_ps(struct exo_win_1f32 a, struct exo_win_1f32 b, struct exo_win_1f32 acc) {
    /* machine intrinsic lowering (windows assumed unit-stride in the last dimension) */
    _mm256_storeu_ps(acc.data, _mm256_fmadd_ps(_mm256_loadu_ps(a.data), _mm256_loadu_ps(b.data), _mm256_loadu_ps(acc.data)));
}

void saxpy(int64_t n, float alpha, float *x, float *y, float *out) {
    /* assume: n % 8 == 0 */
    /* assume: n >= 8 */
    for (int64_t vo_0 = 0; vo_0 < exo_div_euclid(n, 8); vo_0++) {
        float vtmp_0[8];
        memset(vtmp_0, 0, sizeof vtmp_0);
        float vtmp_1[8];
        memset(vtmp_1, 0, sizeof vtmp_1);
        mm256_set1_ps((struct exo_win_1f32){ vtmp_0, { 1 } }, alpha);
        mm256_loadu_ps((struct exo_win_1f32){ vtmp_1, { 1 } }, (struct exo_win_1f32){ &x[8 * vo_0], { 1 } });
        mm256_fmadd_ps((struct exo_win_1f32){ vtmp_0, { 1 } }, (struct exo_win_1f32){ vtmp_1, { 1 } }, (struct exo_win_1f32){ &y[8 * vo_0], { 1 } });
    }
}

#include <stdio.h>

int main(void) {
    static float exo_arg_2[32] = { -5.0, 7.0, 6.0, 7.0, 0.0, -1.0, 0.0, 3.0, -2.0, 5.0, -5.0, -2.0, -1.0, 0.0, -8.0, 7.0, 4.0, -6.0, -1.0, 0.0, -5.0, 1.0, -8.0, 8.0, 5.0, 2.0, 6.0, -2.0, 0.0, 3.0, 6.0, 7.0 };
    static float exo_arg_3[32] = { 6.0, 1.0, -8.0, -3.0, 1.0, -1.0, 1.0, -7.0, -5.0, 7.0, 4.0, -5.0, -8.0, -3.0, 0.0, -5.0, -1.0, 8.0, -5.0, 0.0, -4.0, -8.0, 4.0, 7.0, 3.0, 2.0, 0.0, -1.0, -6.0, -8.0, -1.0, -2.0 };
    static float exo_arg_4[1] = { -1.0 };
    saxpy(32, -1.0, exo_arg_2, exo_arg_3, exo_arg_4);
    for (int64_t exo_i = 0; exo_i < 32; exo_i++) {
        printf("%.17g\n", (double)exo_arg_2[exo_i]);
    }
    for (int64_t exo_i = 0; exo_i < 32; exo_i++) {
        printf("%.17g\n", (double)exo_arg_3[exo_i]);
    }
    for (int64_t exo_i = 0; exo_i < 1; exo_i++) {
        printf("%.17g\n", (double)exo_arg_4[exo_i]);
    }
    return 0;
}
