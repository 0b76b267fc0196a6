// A hand-written svm-ovo-v1 stream with binary-svm-v2 machines: the
// layout SVM models were saved in before svm-ovo-v2 stored each support
// vector once.  Three classes over two features, an RBF kernel and
// Platt sigmoids; every machine writes its own support-vector rows and
// their training-row ids (`full_rows`), and the machines share rows, so
// the loader's content gather folds 11 rows into a pool of 6.
#pragma once

namespace xdmodml {

inline constexpr char kSvmV1Stream[] = R"(svm-ovo-v1
classes 3
probability 1
machines 3
binary-svm-v2
kernel_type 1
gamma 0.5
degree 3
coef0 0
rho 0.1
has_platt 1
platt_a -1.5
platt_b 0.1
svs 4
dims 2
coef 4 0.8 0.7 -1 -0.5
sv 2 0 0
sv 2 1 0.5
sv 2 -1 1
sv 2 2 -1
full_rows 4 0 1 2 3
binary-svm-v2
kernel_type 1
gamma 0.5
degree 3
coef0 0
rho -0.2
has_platt 1
platt_a -2
platt_b -0.1
svs 3
dims 2
coef 3 1.2 -0.9 -0.3
sv 2 0 0
sv 2 0.5 2
sv 2 -0.5 -1.5
full_rows 3 0 4 5
binary-svm-v2
kernel_type 1
gamma 0.5
degree 3
coef0 0
rho 0.05
has_platt 1
platt_a -1.2
platt_b 0
svs 4
dims 2
coef 4 0.6 0.4 -0.7 -0.3
sv 2 -1 1
sv 2 2 -1
sv 2 0.5 2
sv 2 -0.5 -1.5
full_rows 4 2 3 4 5
)";

}  // namespace xdmodml
