/* Generated by exo-codegen — do not edit.
 * kernel: sscal
 * mode: portable scalar
 */
#include <stdint.h>

void sscal(int64_t n, float alpha, float *x, float *y, float *out) {
    /* assume: n % 8 == 0 */
    /* assume: n >= 8 */
    for (int64_t i = 0; i < n; i++) {
        x[i] = alpha * x[i];
    }
}

#include <stdio.h>

int main(void) {
    static float exo_arg_2[32] = { -5.0, 7.0, 6.0, 7.0, 0.0, -1.0, 0.0, 3.0, -2.0, 5.0, -5.0, -2.0, -1.0, 0.0, -8.0, 7.0, 4.0, -6.0, -1.0, 0.0, -5.0, 1.0, -8.0, 8.0, 5.0, 2.0, 6.0, -2.0, 0.0, 3.0, 6.0, 7.0 };
    static float exo_arg_3[32] = { 6.0, 1.0, -8.0, -3.0, 1.0, -1.0, 1.0, -7.0, -5.0, 7.0, 4.0, -5.0, -8.0, -3.0, 0.0, -5.0, -1.0, 8.0, -5.0, 0.0, -4.0, -8.0, 4.0, 7.0, 3.0, 2.0, 0.0, -1.0, -6.0, -8.0, -1.0, -2.0 };
    static float exo_arg_4[1] = { -1.0 };
    sscal(32, -1.0, exo_arg_2, exo_arg_3, exo_arg_4);
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
