//! The benchmark's inputs: the thirteen kernels of
//! `pluto_frontend::kernels::all()` written out as affine-C source (what a
//! `plutoc`/`plutod` user submits), their problem sizes, and the seeded
//! source variants the `serve-mixed` traffic generator sends.

use crate::stats::Rng;

/// One benchmark kernel.
pub struct Kernel {
    /// The `pluto_frontend::kernels::all()` name.
    pub name: &'static str,
    /// Affine-C source. `MIN` stands for the constant of one `assume`
    /// line (see [`Kernel::source_with_min`]).
    template: &'static str,
    /// The `MIN` value of the hot (unmodified) source.
    pub min: i64,
    /// Parameter values for output checks and the simulated machine.
    pub small: &'static [i64],
    /// Parameter values for `run-kernels` executions, sized so every
    /// kernel streams arrays well beyond L1 and tiling can pay.
    pub large: &'static [i64],
}

impl Kernel {
    /// The source with the `MIN` constant set to `min`.
    pub fn source_with_min(&self, min: i64) -> String {
        self.template.replacen("MIN", &min.to_string(), 1)
    }

    /// The hot source, as compiled by `compile-cold` and primed into
    /// `plutod` by `serve-mixed`.
    pub fn source(&self) -> String {
        self.source_with_min(self.min)
    }
}

/// The kernel set, in `pluto_frontend::kernels::all()` order.
pub const KERNELS: &[Kernel] = &[
    Kernel {
        name: "jacobi-1d-imper",
        template: "params T, N;
assume N >= MIN;
array a[N]; array b[N];
for (t = 0; t <= T - 1; t++) {
  for (i = 2; i <= N - 2; i++)
    b[i] = 0.333 * (a[i-1] + a[i] + a[i+1]);
  for (j = 2; j <= N - 2; j++)
    a[j] = b[j];
}
",
        min: 5,
        small: &[16, 256],
        large: &[32, 8192],
    },
    Kernel {
        name: "fdtd-2d",
        template: "params tmax, nx, ny;
assume nx >= MIN;
assume ny >= 3;
array ex[nx][ny + 1]; array ey[nx + 1][ny]; array hz[nx][ny];
for (t = 0; t <= tmax - 1; t++) {
  for (j = 0; j <= ny - 1; j++)
    ey[0][j] = 1.0 / (t + 2.0);
  for (i = 1; i <= nx - 1; i++)
    for (j = 0; j <= ny - 1; j++)
      ey[i][j] = ey[i][j] - 0.5 * (hz[i][j] - hz[i-1][j]);
  for (i = 0; i <= nx - 1; i++)
    for (j = 1; j <= ny - 1; j++)
      ex[i][j] = ex[i][j] - 0.5 * (hz[i][j] - hz[i][j-1]);
  for (i = 0; i <= nx - 1; i++)
    for (j = 0; j <= ny - 1; j++)
      hz[i][j] = hz[i][j] - 0.7 * (ex[i][j+1] - ex[i][j] + ey[i+1][j] - ey[i][j]);
}
",
        min: 3,
        small: &[4, 40, 40],
        large: &[2, 256, 256],
    },
    Kernel {
        name: "lu",
        template: "params N;
assume N >= MIN;
array a[N][N];
for (k = 0; k <= N - 1; k++) {
  for (j = k + 1; j <= N - 1; j++)
    a[k][j] = a[k][j] / a[k][k];
  for (i = k + 1; i <= N - 1; i++)
    for (j = k + 1; j <= N - 1; j++)
      a[i][j] = a[i][j] - a[i][k] * a[k][j];
}
",
        min: 3,
        small: &[40],
        large: &[112],
    },
    Kernel {
        name: "mvt",
        template: "params N;
assume N >= MIN;
array a[N][N]; array x1[N]; array x2[N]; array y1[N]; array y2[N];
for (i = 0; i <= N - 1; i++)
  for (j = 0; j <= N - 1; j++)
    x1[i] = x1[i] + a[i][j] * y1[j];
for (i = 0; i <= N - 1; i++)
  for (j = 0; j <= N - 1; j++)
    x2[i] = x2[i] + a[j][i] * y2[j];
",
        min: 3,
        small: &[128],
        large: &[512],
    },
    Kernel {
        name: "seidel-2d",
        template: "params T, N;
assume T >= 1;
assume N >= MIN;
array a[N][N];
for (t = 0; t <= T - 1; t++)
  for (i = 1; i <= N - 2; i++)
    for (j = 1; j <= N - 2; j++)
      a[i][j] = 0.2 * (a[i-1][j] + a[i][j-1] + a[i][j] + a[i][j+1] + a[i+1][j]);
",
        min: 4,
        small: &[4, 64],
        large: &[2, 512],
    },
    Kernel {
        name: "matmul",
        template: "params N;
assume N >= MIN;
array C[N][N]; array A[N][N]; array B[N][N];
for (i = 0; i <= N - 1; i++)
  for (j = 0; j <= N - 1; j++)
    for (k = 0; k <= N - 1; k++)
      C[i][j] = C[i][j] + A[i][k] * B[k][j];
",
        min: 2,
        small: &[32],
        large: &[80],
    },
    Kernel {
        name: "sor-2d",
        template: "params N;
assume N >= MIN;
array a[N][N];
for (i = 1; i <= N - 1; i++)
  for (j = 1; j <= N - 1; j++)
    a[i][j] = a[i-1][j] + a[i][j-1];
",
        min: 3,
        small: &[160],
        large: &[720],
    },
    Kernel {
        name: "jacobi-2d-imper",
        template: "params T, N;
assume T >= 1;
assume N >= MIN;
array A[N][N]; array B[N][N];
for (t = 0; t <= T - 1; t++) {
  for (i = 1; i <= N - 2; i++)
    for (j = 1; j <= N - 2; j++)
      B[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);
  for (i = 1; i <= N - 2; i++)
    for (j = 1; j <= N - 2; j++)
      A[i][j] = B[i][j];
}
",
        min: 4,
        small: &[4, 48],
        large: &[2, 384],
    },
    Kernel {
        name: "gemver",
        template: "params N;
assume N >= MIN;
array A[N][N]; array u1[N]; array v1[N]; array u2[N]; array v2[N];
array x[N]; array y[N]; array z[N]; array w[N];
for (i = 0; i <= N - 1; i++)
  for (j = 0; j <= N - 1; j++)
    A[i][j] = A[i][j] + u1[i] * v1[j] + u2[i] * v2[j];
for (i = 0; i <= N - 1; i++)
  for (j = 0; j <= N - 1; j++)
    x[i] = x[i] + 0.9 * A[j][i] * y[j];
for (i = 0; i <= N - 1; i++)
  x[i] = x[i] + z[i];
for (i = 0; i <= N - 1; i++)
  for (j = 0; j <= N - 1; j++)
    w[i] = w[i] + 1.1 * A[i][j] * x[j];
",
        min: 3,
        small: &[96],
        large: &[384],
    },
    Kernel {
        name: "trmm",
        template: "params N;
assume N >= MIN;
array A[N][N]; array B[N][N];
for (i = 1; i <= N - 1; i++)
  for (j = 0; j <= N - 1; j++)
    for (k = 0; k <= i - 1; k++)
      B[i][j] = B[i][j] + A[i][k] * B[k][j];
",
        min: 3,
        small: &[40],
        large: &[100],
    },
    Kernel {
        name: "syrk",
        template: "params N;
assume N >= MIN;
array C[N][N]; array A[N][N];
for (i = 0; i <= N - 1; i++)
  for (j = 0; j <= N - 1; j++)
    for (k = 0; k <= N - 1; k++)
      C[i][j] = C[i][j] + A[i][k] * A[j][k];
",
        min: 2,
        small: &[32],
        large: &[80],
    },
    Kernel {
        name: "trisolv",
        template: "params N;
assume N >= MIN;
array L[N][N]; array x[N]; array b[N];
for (i = 0; i <= N - 1; i++) {
  x[i] = b[i];
  for (j = 0; j <= i - 1; j++)
    x[i] = x[i] - L[i][j] * x[j];
  x[i] = x[i] / L[i][i];
}
",
        min: 3,
        small: &[192],
        large: &[1024],
    },
    Kernel {
        name: "doitgen",
        template: "params N;
assume N >= MIN;
array A[N][N][N]; array C4[N][N]; array sum[N];
for (r = 0; r <= N - 1; r++)
  for (q = 0; q <= N - 1; q++) {
    for (p = 0; p <= N - 1; p++) {
      sum[p] = 0.0;
      for (s = 0; s <= N - 1; s++)
        sum[p] = sum[p] + A[r][q][s] * C4[s][p];
    }
    for (p = 0; p <= N - 1; p++)
      A[r][q][p] = sum[p];
  }
",
        min: 2,
        small: &[14],
        large: &[26],
    },
];

/// A reformatted copy of `source` that parses to the same program: each
/// of the first 48 single spaces becomes one or two spaces according to
/// the bits of `variant`, so distinct variants are distinct strings
/// (they miss the daemon's exact-source memo) with identical content.
pub fn reformat(source: &str, variant: u64) -> String {
    let mut out = String::with_capacity(source.len() + 48);
    let mut bit = 0;
    for c in source.chars() {
        out.push(c);
        if c == ' ' && bit < 48 {
            if (variant >> bit) & 1 == 1 {
                out.push(' ');
            }
            bit += 1;
        }
    }
    // Every variant also gains a trailing newline, so variant 0 differs
    // from the hot source.
    out.push('\n');
    out
}

/// The constant the `n`-th cold source of a run puts in place of its
/// kernel's `MIN`: distinct for every `n`, so each cold source has a new
/// content key and compiles in full. The values lie below 1, where the
/// assumption is implied by the context `p >= 1` every parameter gets,
/// so a cold compile does the same work and generates the same code as
/// the hot source. (Raising `MIN` instead changes the work: doitgen
/// compiles about 14x slower with `N >= 8` than with `N >= 2`.)
pub fn cold_min(seed: u64, n: u64) -> i64 {
    -1 - (seed % 1000) as i64 * 1000 - n as i64
}

/// FNV-1a over the kernel set and its problem sizes (`meta.kernel_set`).
pub fn kernel_set_hash() -> u64 {
    let mut text = String::new();
    for k in KERNELS {
        text.push_str(k.name);
        text.push_str(&k.source());
        text.push_str(&format!("{:?}{:?}", k.small, k.large));
    }
    pluto_repro::obs::aggregate::fnv1a(text.as_bytes())
}

/// Kernel indices `0..13` in a seeded order.
pub fn shuffled_order(rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..KERNELS.len()).collect();
    rng.shuffle(&mut v);
    v
}
