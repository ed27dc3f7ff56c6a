#include "gcm/halo.hpp"

#include <stdexcept>

namespace hyades::gcm {

namespace {

// An (i, j) cell window [i0, i1) x [j0, j1), over every level.
struct Window {
  int i0, i1, j0, j1;
  [[nodiscard]] std::size_t cells(int nz) const {
    return static_cast<std::size_t>((i1 - i0) * (j1 - j0) * nz);
  }
};

// The edge strip a tile sends toward direction d, and the halo strip
// that direction d's neighbour fills.  East/west strips span the
// interior rows; north/south strips span the x-extended rows, so the
// second stage carries the corners the first stage filled.
struct Strip {
  Window send, recv;
};

Strip strip(const Decomp& dec, int width, int d) {
  const int h = dec.halo;
  const int ie = h + dec.snx;  // one past the interior in x
  const int je = h + dec.sny;
  const int xi0 = h - width;
  const int xi1 = ie + width;
  switch (d) {
    case comm::kEast:
      return {{ie - width, ie, h, je}, {ie, ie + width, h, je}};
    case comm::kWest:
      return {{h, h + width, h, je}, {h - width, h, h, je}};
    case comm::kNorth:
      return {{xi0, xi1, je - width, je}, {xi0, xi1, je, je + width}};
    default:
      return {{xi0, xi1, h, h + width}, {xi0, xi1, h - width, h}};
  }
}

// Stage 0 moves the east/west strips, stage 1 the north/south ones.
constexpr std::array<std::array<int, 2>, 2> kStageDirs{
    {{comm::kEast, comm::kWest}, {comm::kNorth, comm::kSouth}}};

template <typename FieldT>
void pack(const FieldT& f, const Window& w, int nz, std::vector<double>& out) {
  out.clear();
  out.reserve(w.cells(nz));
  for (int i = w.i0; i < w.i1; ++i) {
    for (int j = w.j0; j < w.j1; ++j) {
      for (int k = 0; k < nz; ++k) {
        out.push_back(f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                        static_cast<std::size_t>(k)));
      }
    }
  }
}

template <typename FieldT>
void unpack(FieldT& f, const Window& w, int nz, const std::vector<double>& in) {
  std::size_t n = 0;
  for (int i = w.i0; i < w.i1; ++i) {
    for (int j = w.j0; j < w.j1; ++j) {
      for (int k = 0; k < nz; ++k) {
        f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
          static_cast<std::size_t>(k)) = in[n++];
      }
    }
  }
}

// Refill `buf` with one stage's outbound strips and size its inbound
// ones; returns the stage's neighbour set (-1 for the other stage's
// directions and for missing neighbours).
template <typename FieldT>
std::array<int, comm::kDirections> pack_stage(const FieldT& f,
                                              const Decomp& dec, int width,
                                              int nz, int stage,
                                              comm::Buffers& buf) {
  buf = comm::Buffers{};
  std::array<int, comm::kDirections> nb{-1, -1, -1, -1};
  for (const int d : kStageDirs[static_cast<std::size_t>(stage)]) {
    const auto di = static_cast<std::size_t>(d);
    nb[di] = dec.neighbors[di];
    if (nb[di] < 0) continue;
    const Strip s = strip(dec, width, d);
    pack(f, s.send, nz, buf.out[di]);
    buf.in[di].resize(s.recv.cells(nz));
  }
  return nb;
}

template <typename FieldT>
void unpack_stage(FieldT& f, const Decomp& dec, int width, int nz, int stage,
                  const comm::Buffers& buf) {
  for (const int d : kStageDirs[static_cast<std::size_t>(stage)]) {
    const auto di = static_cast<std::size_t>(d);
    if (dec.neighbors[di] >= 0) {
      unpack(f, strip(dec, width, d).recv, nz, buf.in[di]);
    }
  }
}

void check_width(const Decomp& dec, int width) {
  if (width < 1 || width > dec.halo) {
    throw std::invalid_argument("halo exchange: width must be in [1, halo]");
  }
}

// Array2D adaptor so the same pack/unpack handles both ranks.
struct Flat2D {
  Array2D<double>& a;
  double operator()(std::size_t i, std::size_t j, std::size_t) const {
    return a(i, j);
  }
  double& operator()(std::size_t i, std::size_t j, std::size_t) {
    return a(i, j);
  }
};

template <typename FieldT>
void exchange_impl(comm::Comm& comm, const Decomp& dec, FieldT& f, int nz,
                   int width) {
  check_width(dec, width);
  comm::Buffers buf;
  for (int stage = 0; stage < 2; ++stage) {
    const std::array<int, comm::kDirections> nb =
        pack_stage(f, dec, width, nz, stage, buf);
    comm.exchange(nb, buf);
    unpack_stage(f, dec, width, nz, stage, buf);
  }
}

}  // namespace

void exchange3d(comm::Comm& comm, const Decomp& dec, Array3D<double>& f,
                int width) {
  exchange_impl(comm, dec, f, static_cast<int>(f.nz()), width);
}

void exchange2d(comm::Comm& comm, const Decomp& dec, Array2D<double>& f,
                int width) {
  Flat2D flat{f};
  exchange_impl(comm, dec, flat, 1, width);
}

HaloExchange3::HaloExchange3(comm::Comm& comm, const Decomp& dec,
                             Array3D<double>& f, int width)
    : comm_(comm), dec_(dec), f_(f), width_(width) {
  check_width(dec, width);
}

void HaloExchange3::start() {
  if (stage_ != 0) throw std::logic_error("HaloExchange3: start() twice");
  const std::array<int, comm::kDirections> nb =
      pack_stage(f_, dec_, width_, nz(), 0, buf_);
  h_ = comm_.exchange_start(nb, buf_);
  stage_ = 1;
}

void HaloExchange3::progress() {
  if (stage_ != 1) throw std::logic_error("HaloExchange3: progress() order");
  comm_.exchange_finish(h_);
  unpack_stage(f_, dec_, width_, nz(), 0, buf_);
  const std::array<int, comm::kDirections> nb =
      pack_stage(f_, dec_, width_, nz(), 1, buf_);
  h_ = comm_.exchange_start(nb, buf_);
  stage_ = 2;
}

void HaloExchange3::finish() {
  if (stage_ != 2) throw std::logic_error("HaloExchange3: finish() order");
  comm_.exchange_finish(h_);
  unpack_stage(f_, dec_, width_, nz(), 1, buf_);
  stage_ = 3;
}

}  // namespace hyades::gcm
