#include "src/obs/sketch.hpp"

#include <stdexcept>

namespace harl::obs {

double QuantileSketch::quantile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile q out of [0,1]");
  }
  return quantile_at(q);
}

}  // namespace harl::obs
