#include "sim/value.h"

#include <stdexcept>

namespace fsct {

char val_char(Val v) {
  switch (v) {
    case Val::Zero: return '0';
    case Val::One: return '1';
    default: return 'X';
  }
}

Val val_from_char(char c) {
  switch (c) {
    case '0': return Val::Zero;
    case '1': return Val::One;
    case 'x':
    case 'X': return Val::X;
    default: throw std::invalid_argument("bad value character");
  }
}

}  // namespace fsct
