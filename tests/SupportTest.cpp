//===- tests/SupportTest.cpp - Support library tests ----------------------===//

#include "support/DenseBitSet.h"
#include "support/Format.h"

#include <gtest/gtest.h>

using namespace rpcc;

namespace {

TEST(DenseBitSetTest, BasicOps) {
  DenseBitSet S(130);
  EXPECT_TRUE(S.none());
  S.set(0);
  S.set(64);
  S.set(129);
  EXPECT_TRUE(S.test(0));
  EXPECT_TRUE(S.test(64));
  EXPECT_TRUE(S.test(129));
  EXPECT_FALSE(S.test(1));
  EXPECT_EQ(S.count(), 3u);
  S.reset(64);
  EXPECT_FALSE(S.test(64));
  EXPECT_EQ(S.count(), 2u);
}

TEST(DenseBitSetTest, SetAlgebra) {
  DenseBitSet A(100), B(100);
  A.set(1);
  A.set(50);
  B.set(50);
  B.set(99);

  DenseBitSet U = A;
  EXPECT_TRUE(U.unionWith(B));
  EXPECT_EQ(U.count(), 3u);
  EXPECT_FALSE(U.unionWith(B)); // no change second time

  DenseBitSet I = A;
  EXPECT_TRUE(I.intersectWith(B));
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(50));

  DenseBitSet D = A;
  EXPECT_TRUE(D.subtract(B));
  EXPECT_EQ(D.count(), 1u);
  EXPECT_TRUE(D.test(1));
}

TEST(DenseBitSetTest, SetAllRespectsTail) {
  DenseBitSet S(70);
  S.setAll();
  EXPECT_EQ(S.count(), 70u);
}

TEST(DenseBitSetTest, ForEachAscending) {
  DenseBitSet S(200);
  S.set(3);
  S.set(64);
  S.set(199);
  std::vector<size_t> Got;
  S.forEach([&](size_t I) { Got.push_back(I); });
  EXPECT_EQ(Got, (std::vector<size_t>{3, 64, 199}));
}

TEST(FormatTest, WithCommas) {
  EXPECT_EQ(withCommas(0), "0");
  EXPECT_EQ(withCommas(999), "999");
  EXPECT_EQ(withCommas(1000), "1,000");
  EXPECT_EQ(withCommas(132386726), "132,386,726");
  EXPECT_EQ(withCommasSigned(-5484688), "-5,484,688");
}

TEST(FormatTest, Fixed) {
  EXPECT_EQ(fixed(4.136, 2), "4.14");
  EXPECT_EQ(fixed(0.0, 2), "0.00");
  EXPECT_EQ(fixed(-0.015, 2), "-0.01"); // snprintf half-even / truncation
}

TEST(FormatTest, TextTableAlignment) {
  TextTable T({"program", "ops"});
  T.addRow({"tsp", "51,049"});
  T.addRow({"mlink", "5,885,109"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("program"), std::string::npos);
  EXPECT_NE(Out.find("tsp"), std::string::npos);
  // Numbers right-aligned: the shorter number is padded on the left.
  EXPECT_NE(Out.find("   51,049"), std::string::npos);
}

} // namespace
